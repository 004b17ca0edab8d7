type result = {
  encoding : Encoding.t;
  satisfied : Constraints.input_constraint list;
  unsatisfied : Constraints.input_constraint list;
  random_start : bool;
}

let min_code_length n =
  let rec bits k acc = if acc >= n then k else bits (k + 1) (acc * 2) in
  max 1 (bits 0 1)

let by_weight_desc (a : Constraints.input_constraint) (b : Constraints.input_constraint) =
  let c = compare b.Constraints.weight a.Constraints.weight in
  if c <> 0 then c else Bitvec.compare a.Constraints.states b.Constraints.states

let ihybrid_code ~num_states ?nbits ?(max_work = 30_000) ?(seed = 0) ?order_seed
    ?(budget = Budget.unlimited) ics =
  let min_len = min_code_length num_states in
  let nbits = match nbits with Some b -> max b min_len | None -> min_len in
  let ordered =
    match order_seed with
    | None -> List.sort by_weight_desc ics
    | Some os ->
        (* Shuffle, then stable-sort by weight: equal weights end up in a
           seed-dependent order. *)
        let rng = Random.State.make [| os; num_states |] in
        let tagged = List.map (fun ic -> (Random.State.bits rng, ic)) ics in
        List.map snd (List.sort compare tagged)
        |> List.stable_sort (fun (a : Constraints.input_constraint) b ->
               compare b.Constraints.weight a.Constraints.weight)
  in
  let codes = ref None in
  let sic = ref [] and ric = ref [] in
  (* Accretion at the minimum code length; [accepted] is the input poset
     of [sic], grown by one group per accepted constraint. *)
  let accepted = ref (Input_poset.build ~num_states []) in
  List.iter
    (fun (ic : Constraints.input_constraint) ->
      if Budget.exhausted budget then ric := ic :: !ric
      else
        let trial = Input_poset.extend !accepted ic.Constraints.states in
        match Iexact.semiexact_code ~k:min_len ~max_work ~budget trial with
        | Some cs ->
            codes := Some cs;
            sic := ic :: !sic;
            accepted := trial
        | None -> ric := ic :: !ric)
    ordered;
  (* Pathological fallback: a random starting encoding. *)
  let random_start = !codes = None in
  let codes =
    match !codes with
    | Some cs -> ref cs
    | None ->
        let rng = Random.State.make [| seed; num_states |] in
        ref (Encoding.random rng ~num_states ~nbits:min_len).Encoding.codes
  in
  (* Projection into the extra dimensions, if any. *)
  let cube_dim = ref min_len in
  while !ric <> [] && !cube_dim < nbits && not (Budget.exhausted budget) do
    let codes', newly, still = Project.project ~codes:!codes ~nbits:!cube_dim ~sic:!sic ~ric:!ric in
    codes := codes';
    sic := newly @ !sic;
    ric := still;
    incr cube_dim
  done;
  let encoding = Encoding.make ~nbits:!cube_dim !codes in
  (* Report satisfaction against the final encoding, which is what the
     downstream minimization sees. *)
  let satisfied, unsatisfied =
    List.partition
      (fun (ic : Constraints.input_constraint) -> Constraints.satisfied encoding ic.Constraints.states)
      ics
  in
  { encoding; satisfied; unsatisfied; random_start }
