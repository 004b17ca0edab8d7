type result = { k : int; codes : int array; proven : bool }
type outcome = Sat of result | Exhausted

(* Enumerate primary level vectors in increasing lexicographic order:
   [levels.(i)] ranges over [lo.(i) .. hi], rightmost position fastest.
   Returns false when the odometer wraps. *)
let advance levels lo hi =
  let n = Array.length levels in
  let rec bump i =
    if i < 0 then false
    else if levels.(i) < hi then begin
      levels.(i) <- levels.(i) + 1;
      true
    end
    else begin
      levels.(i) <- lo.(i);
      bump (i - 1)
    end
  in
  bump (n - 1)

let iexact_code ~num_states ?(max_work = 2_000_000) ?(budget = Budget.unlimited) ics =
  let poset = Input_poset.build ~num_states ics in
  let mincube = Input_poset.mincube_dim poset in
  let primaries =
    Array.to_list poset.Input_poset.elements
    |> List.filter (fun e -> e.Input_poset.category = 1 && e.Input_poset.card > 1)
  in
  (* The intrinsic cap is a sub-budget: the search charges the caller's
     budget too, and stops at whichever limit comes first. *)
  let local = Budget.sub ~max_work budget in
  let out_of_budget () = Budget.exhausted local in
  let solve ~k policy =
    Embed.solve poset { Embed.k; policy; budget = local; output_constraints = [] }
  in
  let answer = ref None in
  let all_below_refuted = ref true in
  let k = ref mincube in
  let upper = min 62 num_states in
  while !answer = None && (not (out_of_budget ())) && !k <= upper do
    let kk = !k in
    let refuted_here = ref true in
    (* Fast probe: the minimum-level restriction usually finds a solution
       when one exists at this dimension. Finding one here short-cuts the
       level enumeration; failing proves nothing (incomplete search). *)
    (match solve ~k:kk Embed.Fixed_min with
    | Embed.Sat { codes; _ } ->
        answer := Some { k = kk; codes; proven = !all_below_refuted }
    | Embed.Unsat | Embed.Exhausted -> ());
    (* Full primary-level-vector enumeration (Section 3.3.1). *)
    if !answer = None then begin
      let lo = Array.of_list (List.map Input_poset.min_level primaries) in
      let hi = kk - 1 in
      if Array.exists (fun l -> l > hi) lo then refuted_here := true
      else begin
        let levels = Array.copy lo in
        let continue_ = ref true in
        while !continue_ && !answer = None && not (out_of_budget ()) do
          let dimvect = Array.make (Array.length poset.Input_poset.elements) 0 in
          List.iteri (fun i e -> dimvect.(e.Input_poset.id) <- levels.(i)) primaries;
          (match solve ~k:kk (Embed.Dimvect dimvect) with
          | Embed.Sat { codes; _ } ->
              answer := Some { k = kk; codes; proven = !all_below_refuted }
          | Embed.Unsat -> ()
          | Embed.Exhausted -> refuted_here := false);
          if !answer = None then continue_ := advance levels lo hi
        done;
        if out_of_budget () then refuted_here := false
      end
    end;
    if !answer = None && not !refuted_here then all_below_refuted := false;
    incr k
  done;
  (* Budget gone with nothing found: sweep a few more dimensions with the
     fast probe, reporting any full-satisfaction length found as unproven
     (the paper's starred entries). The probes run on fresh sub-budgets
     of the caller's, so the intrinsic cap above does not silence them —
     but a caller deadline still does. *)
  if !answer = None then begin
    let kk = ref !k in
    while !answer = None && (not (Budget.exhausted budget)) && !kk <= min upper (mincube + 3) do
      List.iter
        (fun policy ->
          if !answer = None then
            match
              Embed.solve poset
                {
                  Embed.k = !kk;
                  policy;
                  budget = Budget.sub ~max_work:200_000 budget;
                  output_constraints = [];
                }
            with
            | Embed.Sat { codes; _ } -> answer := Some { k = !kk; codes; proven = false }
            | Embed.Unsat | Embed.Exhausted -> ())
        [ Embed.Fixed_min; Embed.Flexible 2 ];
      incr kk
    done
  end;
  (* Last resort: greedy accretion at the minimum length followed by the
     constructive projection of Proposition 4.2.1 satisfies everything at
     some (non-minimal) length — the flavor of entry the paper prints as
     donfile's "11". *)
  if !answer = None then begin
    let min_len =
      let rec bits b acc = if acc >= num_states then b else bits (b + 1) (acc * 2) in
      max 1 (bits 0 1)
    in
    let constraint_of g = { Constraints.states = g; weight = 1 } in
    (* Accretion: keep every constraint the bounded search can satisfy
       together at the minimum length. *)
    let codes = ref (Array.init num_states (fun s -> s)) in
    let kept = ref (Input_poset.build ~num_states []) in
    List.iter
      (fun g ->
        if not (Budget.exhausted budget) then begin
          let trial = Input_poset.extend !kept g in
          match
            Embed.solve trial
              {
                Embed.k = min_len;
                policy = Embed.Fixed_min;
                budget = Budget.sub ~max_work:30_000 budget;
                output_constraints = [];
              }
          with
          | Embed.Sat { codes = cs; _ } ->
              codes := cs;
              kept := trial
          | Embed.Unsat | Embed.Exhausted -> ()
        end)
      (List.sort (fun a b -> compare (Bitvec.cardinal b) (Bitvec.cardinal a)) ics);
    let nbits = ref min_len in
    let e0 = Encoding.make ~nbits:min_len !codes in
    let sic, ric = List.partition (Constraints.satisfied e0) ics in
    let sic = ref (List.map constraint_of sic) and ric = ref (List.map constraint_of ric) in
    while !ric <> [] && !nbits < 60 && not (Budget.exhausted budget) do
      let codes', newly, still = Project.project ~codes:!codes ~nbits:!nbits ~sic:!sic ~ric:!ric in
      codes := codes';
      sic := newly @ !sic;
      ric := still;
      incr nbits
    done;
    if !ric = [] then answer := Some { k = !nbits; codes = !codes; proven = false }
  end;
  match !answer with Some r -> Sat r | None -> Exhausted

let semiexact_code ~k ?(max_work = 30_000) ?(budget = Budget.unlimited)
    ?(output_constraints = []) poset =
  if Budget.exhausted budget then None
  else
    match
      Embed.solve poset
        {
          Embed.k;
          policy = Embed.Fixed_min;
          budget = Budget.sub ~max_work budget;
          output_constraints;
        }
    with
    | Embed.Sat { codes; _ } -> Some codes
    | Embed.Unsat | Embed.Exhausted -> None
