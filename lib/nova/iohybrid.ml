type problem = {
  num_states : int;
  ics : Constraints.input_constraint list;
  clusters : Constraints.oc_cluster list;
}

type result = {
  encoding : Encoding.t;
  sat_inputs : Constraints.input_constraint list;
  unsat_inputs : Constraints.input_constraint list;
  sat_clusters : Constraints.oc_cluster list;
  random_start : bool;
}

let by_weight_desc (a : Constraints.input_constraint) (b : Constraints.input_constraint) =
  let c = compare b.Constraints.weight a.Constraints.weight in
  if c <> 0 then c else Bitvec.compare a.Constraints.states b.Constraints.states

let by_cluster_weight_desc (a : Constraints.oc_cluster) (b : Constraints.oc_cluster) =
  let c = compare b.Constraints.oc_weight a.Constraints.oc_weight in
  if c <> 0 then c else compare a.Constraints.next_state b.Constraints.next_state

let cluster_edges clusters =
  List.concat_map (fun (cl : Constraints.oc_cluster) -> cl.Constraints.edges) clusters

let groups_of ics = List.map (fun (ic : Constraints.input_constraint) -> ic.Constraints.states) ics

let finish ~num_states ~codes ~nbits ~ics ~clusters ~random_start =
  let encoding = Encoding.make ~nbits codes in
  let sat_inputs, unsat_inputs =
    List.partition
      (fun (ic : Constraints.input_constraint) -> Constraints.satisfied encoding ic.Constraints.states)
      ics
  in
  let sat_clusters = List.filter (Constraints.cluster_satisfied encoding) clusters in
  ignore num_states;
  { encoding; sat_inputs; unsat_inputs; sat_clusters; random_start }

let run ~variant ?nbits ?(max_work = 30_000) ?(seed = 0) ?(budget = Budget.unlimited) p =
  let n = p.num_states in
  let min_len = Ihybrid.min_code_length n in
  let nbits = match nbits with Some b -> max b min_len | None -> min_len in
  if p.ics = [] && p.clusters <> [] then begin
    (* Only output constraints: defer to the output encoder, within the
       caller's code-length budget. *)
    let encoding =
      Out_encoder.out_encoder ~num_states:n ~max_bits:nbits ~budget (cluster_edges p.clusters)
    in
    finish ~num_states:n ~codes:encoding.Encoding.codes ~nbits:encoding.Encoding.nbits
      ~ics:p.ics ~clusters:p.clusters ~random_start:false
  end
  else begin
    let companion_groups =
      List.concat_map (fun (cl : Constraints.oc_cluster) -> cl.Constraints.companion) p.clusters
    in
    let is_companion (ic : Constraints.input_constraint) =
      List.exists (Bitvec.equal ic.Constraints.states) companion_groups
    in
    (* Stage 1: input-constraint accretion at the minimum code length.
       iohybrid takes all input constraints; iovariant only IC_o. *)
    let stage1_ics =
      if variant then List.filter (fun ic -> not (is_companion ic)) p.ics else p.ics
    in
    let codes = ref None in
    let sic = ref [] and ric = ref [] in
    (* The input poset of [sic], grown by one group per acceptance. *)
    let accepted = ref (Input_poset.build ~num_states:n []) in
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
      (List.sort by_weight_desc stage1_ics);
    (* Stage 2: clusters of output constraints in decreasing weight. *)
    let soc = ref [] in
    List.iter
      (fun (cl : Constraints.oc_cluster) ->
        let companions =
          if variant then
            List.filter_map
              (fun g ->
                if List.exists (fun (s : Constraints.input_constraint) -> Bitvec.equal s.Constraints.states g) !sic
                then None
                else Some { Constraints.states = g; weight = 1 })
              cl.Constraints.companion
          else []
        in
        let attempt =
          if Budget.exhausted budget then None
          else
            let trial = List.fold_left Input_poset.extend !accepted (groups_of companions) in
            let ocs = cluster_edges (cl :: !soc) in
            Iexact.semiexact_code ~k:min_len ~max_work ~budget ~output_constraints:ocs trial
            |> Option.map (fun cs -> (cs, trial))
        in
        match attempt with
        | Some (cs, trial) ->
            codes := Some cs;
            soc := cl :: !soc;
            if variant then begin
              sic := companions @ !sic;
              accepted := trial;
              ric :=
                List.filter
                  (fun (r : Constraints.input_constraint) ->
                    not (List.exists (fun (s : Constraints.input_constraint) ->
                             Bitvec.equal s.Constraints.states r.Constraints.states) !sic))
                  !ric
            end
        | None ->
            if variant then
              ric :=
                companions
                @ List.filter
                    (fun (r : Constraints.input_constraint) ->
                      not (List.exists (fun (c : Constraints.input_constraint) ->
                               Bitvec.equal c.Constraints.states r.Constraints.states) companions))
                    !ric)
      (List.sort by_cluster_weight_desc p.clusters);
    (* Fallback and projection, exactly as in ihybrid. *)
    let random_start = !codes = None in
    let codes =
      match !codes with
      | Some cs -> ref cs
      | None ->
          let rng = Random.State.make [| seed; n |] in
          ref (Encoding.random rng ~num_states:n ~nbits:min_len).Encoding.codes
    in
    let cube_dim = ref min_len in
    while !ric <> [] && !cube_dim < nbits && not (Budget.exhausted budget) do
      let codes', newly, still =
        Project.project ~codes:!codes ~nbits:!cube_dim ~sic:!sic ~ric:!ric
      in
      codes := codes';
      sic := newly @ !sic;
      ric := still;
      incr cube_dim
    done;
    finish ~num_states:n ~codes:!codes ~nbits:!cube_dim ~ics:p.ics ~clusters:p.clusters
      ~random_start
  end

let iohybrid_code ?nbits ?max_work ?seed ?budget p =
  run ~variant:false ?nbits ?max_work ?seed ?budget p

let iovariant_code ?nbits ?max_work ?seed ?budget p =
  run ~variant:true ?nbits ?max_work ?seed ?budget p
