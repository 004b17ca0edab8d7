(* Instrumentation probes: no-ops unless Instrument.enable (). *)
let t_solve = Instrument.timer "embed.solve"
let c_ticks = Instrument.counter "embed.work_ticks"
let c_verify = Instrument.counter "embed.verify_calls"
let c_cascades = Instrument.counter "embed.cascade_calls"
let h_backtrack = Instrument.histogram "embed.candidate_faces_tried"

type level_policy = Fixed_min | Flexible of int | Dimvect of int array

type params = {
  k : int;
  policy : level_policy;
  budget : Budget.t;
  output_constraints : Constraints.output_constraint list;
}

let default_params ~k =
  { k; policy = Fixed_min; budget = Budget.unlimited; output_constraints = [] }

type outcome = Sat of { codes : int array; faces : Face.t array } | Unsat | Exhausted

exception Work_exhausted

let solve (poset : Input_poset.t) params =
  Instrument.time t_solve @@ fun () ->
  let k = params.k in
  let n = poset.Input_poset.num_states in
  let elements = poset.Input_poset.elements in
  let m = Array.length elements in
  if k < 1 || k > 62 || 1 lsl k < n then Unsat
  else begin
    let all = (1 lsl k) - 1 in
    let min_level = Array.map Input_poset.min_level elements in
    let fathers = Array.map (fun e -> Array.of_list e.Input_poset.fathers) elements in
    let children = Array.map (fun e -> Array.of_list e.Input_poset.children) elements in
    let ids_of_category cats =
      Array.of_list
        (List.filter_map
           (fun e -> if List.mem e.Input_poset.category cats then Some e.Input_poset.id else None)
           (Array.to_list elements))
    in
    let forced_ids = ids_of_category [ 2 ] and selectable_ids = ids_of_category [ 1; 3 ] in
    (* The state of singleton elements, for output-covering checks. *)
    let singleton_state = Array.make m (-1) in
    Array.iteri (fun s id -> singleton_state.(id) <- s) (Input_poset.singleton_ids poset);
    (* The assignment: faces as (mask, bits) pairs, the assigned ids on a
       stack ([pos] is an id's slot, -1 when unassigned), and per element
       the number of fathers still unassigned. *)
    let fmask = Array.make m 0 and fbits = Array.make m 0 in
    let stack = Array.make m 0 and pos = Array.make m (-1) and top = ref 0 in
    let waiting = Array.map Array.length fathers in
    let state_code = Array.make n (-1) in
    let face_of id = { Face.mask = fmask.(id); bits = fbits.(id) } in
    let tick () =
      Instrument.bump c_ticks;
      if not (Budget.tick params.budget) then raise Work_exhausted
    in
    (* Output covering relations on fully decided state codes, with
       state [s] about to take code [code]. *)
    let rec covering_holds s code = function
      | [] -> true
      | (oc : Constraints.output_constraint) :: rest ->
          let u = oc.Constraints.covering and v = oc.Constraints.covered in
          let cu = if u = s then code else state_code.(u) in
          let cv = if v = s then code else state_code.(v) in
          ((u <> s && v <> s) || cu < 0 || cv < 0 || (cu lor cv = cu && cu <> cv))
          && covering_holds s code rest
    in
    (* Verification of Section 3.4.3 of face (fm, fb) for [id] against
       every assigned element: face arithmetic on ints, set relations
       from the poset's table. *)
    let verify id fm fb =
      Instrument.bump c_verify;
      min_level.(id) <= k - Bitvec.popcount_word fm
      &&
      let ok = ref true in
      let i = ref 0 in
      while !ok && !i < !top do
        let j = stack.(!i) in
        (if j <> id then
           let gm = fmask.(j) and gb = fbits.(j) in
           let r = Input_poset.pair poset id j in
           if gm = fm && gb = fb then ok := false
           else if
             gm land lnot fm = 0 && (gb lxor fb) land gm = 0 && not (Input_poset.subset r)
           then ok := false
           else if
             fm land lnot gm = 0 && (fb lxor gb) land fm = 0 && not (Input_poset.superset r)
           then ok := false
           else
             let kid = Input_poset.inter_id r in
             if fm land gm land (fb lxor gb) <> 0 then (if kid >= 0 then ok := false)
             else if kid < 0 then ok := false
             else
               (* The faces meet in (hm, hb): it must hold the element
                  of the common states, and be its face if assigned. *)
               let hm = fm lor gm and hb = fb lor gb in
               if min_level.(kid) > k - Bitvec.popcount_word hm then ok := false
               else if kid = id then (if hm <> fm || hb <> fb then ok := false)
               else if kid = j then (if hm <> gm || hb <> gb then ok := false)
               else if pos.(kid) >= 0 && (hm <> fmask.(kid) || hb <> fbits.(kid)) then
                 ok := false);
        incr i
      done;
      !ok
      && (params.output_constraints = []
         || fm <> all
         || singleton_state.(id) < 0
         || covering_holds singleton_state.(id) fb params.output_constraints)
    in
    let assign id fm fb =
      fmask.(id) <- fm;
      fbits.(id) <- fb;
      pos.(id) <- !top;
      stack.(!top) <- id;
      incr top;
      let cs = children.(id) in
      for x = 0 to Array.length cs - 1 do
        waiting.(cs.(x)) <- waiting.(cs.(x)) - 1
      done;
      let s = singleton_state.(id) in
      if s >= 0 && fm = all then state_code.(s) <- fb
    in
    let unassign id =
      let p = pos.(id) in
      let last = stack.(!top - 1) in
      stack.(p) <- last;
      pos.(last) <- p;
      pos.(id) <- -1;
      decr top;
      let cs = children.(id) in
      for x = 0 to Array.length cs - 1 do
        waiting.(cs.(x)) <- waiting.(cs.(x)) + 1
      done;
      let s = singleton_state.(id) in
      if s >= 0 then state_code.(s) <- -1
    in
    (* Force category-2 elements whose fathers are all assigned to the
       intersection of the fathers' faces; cascade to a fixpoint.
       Returns the list of forced ids, or None after undoing on conflict. *)
    let cascade () =
      Instrument.bump c_cascades;
      let forced = ref [] in
      let rec fix () =
        let progress = ref false in
        let conflict = ref false in
        let i = ref 0 in
        while (not !conflict) && !i < Array.length forced_ids do
          let id = forced_ids.(!i) in
          if pos.(id) < 0 && waiting.(id) = 0 then begin
            let fs = fathers.(id) in
            let hm = ref 0 and hb = ref 0 in
            for x = 0 to Array.length fs - 1 do
              let f = fs.(x) in
              if !hm land fmask.(f) land (!hb lxor fbits.(f)) <> 0 then conflict := true;
              hm := !hm lor fmask.(f);
              hb := !hb lor fbits.(f)
            done;
            if not !conflict then begin
              tick ();
              if verify id !hm !hb then begin
                assign id !hm !hb;
                forced := id :: !forced;
                progress := true
              end
              else conflict := true
            end
          end;
          incr i
        done;
        if !conflict then begin
          List.iter unassign !forced;
          None
        end
        else if !progress then fix ()
        else Some !forced
      in
      fix ()
    in
    (* Target level of a selectable element under the current policy. *)
    let target_level =
      Array.map
        (fun e ->
          match (params.policy, e.Input_poset.category) with
          | Dimvect levels, 1 when e.Input_poset.card > 1 -> levels.(e.Input_poset.id)
          | (Fixed_min | Flexible _ | Dimvect _), _ -> Input_poset.min_level e)
        elements
    in
    (* next_to_code (Section 3.4.1): prefer high target level, category 1,
       and elements sharing children with the last assigned one; the
       lowest id breaks ties. *)
    let select last =
      let best = ref (-1) and best_key = ref (-1) in
      for x = 0 to Array.length selectable_ids - 1 do
        let id = selectable_ids.(x) in
        if pos.(id) < 0 && waiting.(id) = 0 then begin
          let shares = last >= 0 && Input_poset.share_children (Input_poset.pair poset last id) in
          let key =
            (4 * target_level.(id))
            + (if elements.(id).Input_poset.category = 1 then 2 else 0)
            + if shares then 1 else 0
          in
          if key > !best_key then begin
            best := id;
            best_key := key
          end
        end
      done;
      !best
    in
    let candidate_faces id =
      let e = elements.(id) in
      match e.Input_poset.category with
      | 1 ->
          let lmin = target_level.(id) in
          let lmax =
            match params.policy with
            | Flexible slack -> min (k - 1) (min_level.(id) + slack)
            | Fixed_min | Dimvect _ -> lmin
          in
          if lmin >= k then Seq.empty
          else
            let levels = Seq.init (lmax - lmin + 1) (fun i -> lmin + i) in
            if !top = 1 then
              (* Only the universe is assigned, so this is the first face
                 placed: any face of its level maps to any other under a
                 cube automorphism, and one representative per level is
                 complete. *)
              Seq.concat_map (fun l -> Seq.take 1 (Face.faces_at_level k l)) levels
            else Seq.concat_map (Face.faces_at_level k) levels
      | 3 -> (
          let father = fathers.(id).(0) in
          if pos.(father) < 0 then Seq.empty
          else
            let g = face_of father in
            let lg = Face.level k g in
            let lmin = min_level.(id) in
            let levels =
              match params.policy with
              | Fixed_min -> if lmin < lg then Seq.return lmin else Seq.empty
              | Flexible slack ->
                  Seq.init (max 0 (min (lg - 1) (lmin + slack) - lmin + 1)) (fun i -> lmin + i)
              | Dimvect _ ->
                  (* full lower-level backtracking: any feasible level *)
                  Seq.init (max 0 (lg - lmin)) (fun i -> lmin + i)
            in
            Seq.concat_map (fun l -> Face.subfaces_at_level k g l) levels)
      | _ -> Seq.empty
    in
    (* Completion: everything assigned AND the covering relations hold on
       the final codes. Singletons forced (category 2) onto faces of
       level > 0 only receive their vertex here, so relations touching
       them cannot be checked earlier. *)
    let final_codes () =
      let codes = Array.copy state_code in
      for id = 0 to m - 1 do
        let s = singleton_state.(id) in
        if s >= 0 && codes.(s) < 0 && pos.(id) >= 0 then codes.(s) <- fbits.(id)
      done;
      codes
    in
    let all_assigned () =
      !top = m
      && (params.output_constraints = []
         ||
         let codes = final_codes () in
         List.for_all
           (fun (oc : Constraints.output_constraint) ->
             let cu = codes.(oc.Constraints.covering) and cv = codes.(oc.Constraints.covered) in
             cu < 0 || cv < 0 || (cu lor cv = cu && cu <> cv))
           params.output_constraints)
    in
    let rec go last =
      match select last with
      | -1 -> all_assigned ()
      | id ->
          let rec try_faces tried seq =
            match seq () with
            | Seq.Nil ->
                Instrument.observe h_backtrack tried;
                false
            | Seq.Cons ((f : Face.t), rest) ->
                tick ();
                let fm = f.Face.mask and fb = f.Face.bits in
                if verify id fm fb then begin
                  assign id fm fb;
                  match cascade () with
                  | Some forced ->
                      if go id then begin
                        Instrument.observe h_backtrack (tried + 1);
                        true
                      end
                      else begin
                        List.iter unassign forced;
                        unassign id;
                        try_faces (tried + 1) rest
                      end
                  | None ->
                      unassign id;
                      try_faces (tried + 1) rest
                end
                else try_faces (tried + 1) rest
          in
          try_faces 0 (candidate_faces id)
    in
    let full = Face.full k in
    match
      assign poset.Input_poset.universe full.Face.mask full.Face.bits;
      (match cascade () with
      | None -> false
      | Some _ -> go (-1))
    with
    | true ->
        (* A singleton forced to a face of level > 0 owns every vertex of
           that face; its code is the face's base vertex. *)
        let codes = final_codes () in
        ignore (Array.for_all (fun c -> c >= 0) codes || (invalid_arg "Embed.solve: missing code"));
        Sat { codes; faces = Array.init m face_of }
    | false -> Unsat
    | exception Work_exhausted -> Exhausted
  end
