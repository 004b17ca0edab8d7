(* Property tests for the face algebra and the input poset invariants. *)

let gen_face k =
  QCheck.Gen.(
    int_bound ((1 lsl k) - 1) >>= fun mask ->
    int_bound ((1 lsl k) - 1) >>= fun bits -> return (Face.make k ~mask ~bits))

let gen_k_faces =
  QCheck.make
    ~print:(fun (k, f, g) -> Printf.sprintf "k=%d %s %s" k (Face.to_string k f) (Face.to_string k g))
    QCheck.Gen.(
      int_range 1 6 >>= fun k ->
      gen_face k >>= fun f ->
      gen_face k >>= fun g -> return (k, f, g))

let prop_inter_is_set_intersection =
  QCheck.Test.make ~name:"face inter = vertex-set intersection" ~count:300 gen_k_faces
    (fun (k, f, g) ->
      let vf = Face.vertices k f and vg = Face.vertices k g in
      let expected = List.filter (fun v -> List.mem v vg) vf in
      match Face.inter f g with
      | None -> expected = []
      | Some h -> List.sort compare (Face.vertices k h) = List.sort compare expected)

let prop_contains_is_subset =
  QCheck.Test.make ~name:"face contains = vertex-set inclusion" ~count:300 gen_k_faces
    (fun (k, f, g) ->
      let vf = Face.vertices k f and vg = Face.vertices k g in
      Face.contains f g = List.for_all (fun v -> List.mem v vf) vg)

let prop_supercube_minimal =
  QCheck.Test.make ~name:"supercube = smallest face over the union of vertices" ~count:300
    gen_k_faces (fun (k, f, g) ->
      let sc = Face.supercube f g in
      (* Folding vertex-by-vertex must give the same face: the supercube
         of a set of points is determined by which bits vary. *)
      let all = Face.vertices k f @ Face.vertices k g in
      match all with
      | [] -> false
      | v :: rest ->
          let built = List.fold_left (fun acc u -> Face.supercube acc (Face.vertex k u)) (Face.vertex k v) rest in
          Face.equal sc built && Face.contains sc f && Face.contains sc g)

let prop_vertices_count =
  QCheck.Test.make ~name:"face has 2^level vertices, all on the face" ~count:300 gen_k_faces
    (fun (k, f, _) ->
      let vs = Face.vertices k f in
      List.length vs = Face.cardinality k f
      && List.for_all (Face.contains_code f) vs
      && List.length (List.sort_uniq compare vs) = List.length vs)

let prop_enumeration_complete =
  QCheck.Test.make ~name:"faces_at_level enumerates C(k,l)*2^(k-l) distinct faces" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 0 5))
    (fun (k, l) ->
      l > k
      ||
      let faces = List.of_seq (Face.faces_at_level k l) in
      let rec binom n r = if r = 0 || r = n then 1 else binom (n - 1) (r - 1) + binom (n - 1) r in
      List.length faces = binom k l * (1 lsl (k - l))
      && List.length (List.sort_uniq Face.compare faces) = List.length faces
      && List.for_all (fun f -> Face.level k f = l) faces)

let prop_subfaces_within =
  QCheck.Test.make ~name:"subfaces lie inside, superfaces contain" ~count:200 gen_k_faces
    (fun (k, f, _) ->
      let lf = Face.level k f in
      (lf = 0
      || List.for_all (fun s -> Face.contains f s) (List.of_seq (Face.subfaces_at_level k f (lf - 1)))
      )
      && (lf = k
         || List.for_all (fun s -> Face.contains s f)
              (List.of_seq (Face.superfaces_at_level k f (lf + 1)))))

(* --- input poset -------------------------------------------------------- *)

let gen_instance =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 3 9) (int_bound 100_000))

let groups_of (n, seed) =
  let rng = Random.State.make [| seed |] in
  List.init 5 (fun _ ->
      let g = Bitvec.create n in
      for s = 0 to n - 1 do
        if Random.State.int rng 3 = 0 then Bitvec.set g s
      done;
      g)
  |> List.filter (fun g -> not (Bitvec.is_empty g))

let prop_closure_closed =
  QCheck.Test.make ~name:"input poset closed under intersection" ~count:150 gen_instance
    (fun (n, seed) ->
      let poset = Input_poset.build ~num_states:n (groups_of (n, seed)) in
      let elems = Array.to_list poset.Input_poset.elements in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let i = Bitvec.inter a.Input_poset.states b.Input_poset.states in
              Bitvec.is_empty i || Input_poset.find poset i <> None)
            elems)
        elems)

let prop_fathers_minimal =
  QCheck.Test.make ~name:"fathers are minimal strict supersets" ~count:150 gen_instance
    (fun (n, seed) ->
      let poset = Input_poset.build ~num_states:n (groups_of (n, seed)) in
      let elems = poset.Input_poset.elements in
      Array.for_all
        (fun e ->
          List.for_all
            (fun fid ->
              let f = elems.(fid) in
              let strict a b = Bitvec.subset b a && not (Bitvec.equal a b) in
              strict f.Input_poset.states e.Input_poset.states
              && not
                   (Array.exists
                      (fun g ->
                        g.Input_poset.id <> fid && g.Input_poset.id <> e.Input_poset.id
                        && strict f.Input_poset.states g.Input_poset.states
                        && strict g.Input_poset.states e.Input_poset.states)
                      elems))
            e.Input_poset.fathers)
        elems)

let prop_categories_consistent =
  QCheck.Test.make ~name:"categories match father structure" ~count:150 gen_instance
    (fun (n, seed) ->
      let poset = Input_poset.build ~num_states:n (groups_of (n, seed)) in
      Array.for_all
        (fun e ->
          match (e.Input_poset.category, e.Input_poset.fathers) with
          | 0, [] -> e.Input_poset.id = poset.Input_poset.universe
          | 1, [ f ] -> f = poset.Input_poset.universe
          | 2, _ :: _ :: _ -> true
          | 3, [ f ] -> f <> poset.Input_poset.universe
          | _, _ -> false)
        poset.Input_poset.elements)

let prop_singletons_and_universe_present =
  QCheck.Test.make ~name:"closure contains universe and all singletons" ~count:150 gen_instance
    (fun (n, seed) ->
      let poset = Input_poset.build ~num_states:n (groups_of (n, seed)) in
      Input_poset.find poset (Bitvec.full n) <> None
      && List.for_all
           (fun s -> Input_poset.find poset (Bitvec.of_list n [ s ]) <> None)
           (List.init n (fun s -> s)))

let prop_mincube_at_least_log =
  QCheck.Test.make ~name:"mincube_dim >= ceil log2 n" ~count:150 gen_instance
    (fun (n, seed) ->
      let poset = Input_poset.build ~num_states:n (groups_of (n, seed)) in
      let rec bits k acc = if acc >= n then k else bits (k + 1) (acc * 2) in
      Input_poset.mincube_dim poset >= bits 0 1)

(* Every entry of the static relation table agrees with the set
   operations it stands for. *)
let prop_relation_table =
  QCheck.Test.make ~name:"relation table = subset / disjoint / intersection id / shared child"
    ~count:150 gen_instance (fun (n, seed) ->
      let poset = Input_poset.build ~num_states:n (groups_of (n, seed)) in
      let elems = poset.Input_poset.elements in
      let ok = ref true in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              let i = a.Input_poset.id and j = b.Input_poset.id in
              let sa = a.Input_poset.states and sb = b.Input_poset.states in
              let common = Bitvec.inter sa sb in
              let expected_inter =
                if Bitvec.is_empty common then -1
                else Option.value ~default:(-2) (Input_poset.find poset common)
              in
              let shared =
                List.exists (fun c -> List.mem c b.Input_poset.children) a.Input_poset.children
              in
              let r = Input_poset.pair poset i j in
              if
                Input_poset.subset r <> Bitvec.subset sa sb
                || Input_poset.superset r <> Bitvec.subset sb sa
                || (Input_poset.inter_id r < 0) <> Bitvec.disjoint sa sb
                || Input_poset.inter_id r <> expected_inter
                || Input_poset.share_children r <> shared
              then ok := false)
            elems)
        elems;
      !ok)

(* Reference closure: pairwise intersections to a fixpoint, in the
   element order (decreasing cardinality, then Bitvec.compare). *)
let naive_closure n groups =
  let order a b =
    let c = compare (Bitvec.cardinal b) (Bitvec.cardinal a) in
    if c <> 0 then c else Bitvec.compare a b
  in
  let rec fix sets =
    let next =
      List.sort_uniq order
        (List.concat_map
           (fun a ->
             List.filter_map
               (fun b ->
                 let i = Bitvec.inter a b in
                 if Bitvec.is_empty i then None else Some i)
               sets)
           sets
        @ sets)
    in
    if List.length next = List.length sets then sets else fix next
  in
  fix
    (List.sort_uniq order
       (List.filter
          (fun g -> not (Bitvec.is_empty g))
          ((Bitvec.full n :: List.init n (fun s -> Bitvec.of_list n [ s ])) @ groups)))

(* Growing a poset by one group is the same poset as building it with
   that group: same ids, states, fathers, children, categories and
   relation table, and the states are exactly the reference closure. *)
let prop_extend_is_build =
  QCheck.Test.make ~name:"extend (build gs) g = build (g :: gs), element for element" ~count:150
    gen_instance (fun (n, seed) ->
      let gs = groups_of (n, seed) in
      let extra = groups_of (n, seed + 1) in
      (* Sometimes a fresh group, sometimes one already in the closure. *)
      let g =
        match (extra, gs) with
        | _, g :: _ when seed mod 4 = 0 -> Bitvec.copy g
        | g :: _, _ -> g
        | [], _ -> Bitvec.of_list n [ 0 ]
      in
      let grown = Input_poset.extend (Input_poset.build ~num_states:n gs) g in
      let built = Input_poset.build ~num_states:n (g :: gs) in
      grown = built
      && List.equal Bitvec.equal
           (Array.to_list (Array.map (fun e -> e.Input_poset.states) built.Input_poset.elements))
           (naive_closure n (g :: gs)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_inter_is_set_intersection;
    QCheck_alcotest.to_alcotest prop_contains_is_subset;
    QCheck_alcotest.to_alcotest prop_supercube_minimal;
    QCheck_alcotest.to_alcotest prop_vertices_count;
    QCheck_alcotest.to_alcotest prop_enumeration_complete;
    QCheck_alcotest.to_alcotest prop_subfaces_within;
    QCheck_alcotest.to_alcotest prop_closure_closed;
    QCheck_alcotest.to_alcotest prop_fathers_minimal;
    QCheck_alcotest.to_alcotest prop_categories_consistent;
    QCheck_alcotest.to_alcotest prop_singletons_and_universe_present;
    QCheck_alcotest.to_alcotest prop_mincube_at_least_log;
    QCheck_alcotest.to_alcotest prop_relation_table;
    QCheck_alcotest.to_alcotest prop_extend_is_build;
  ]
