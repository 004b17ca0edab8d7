type element = {
  id : int;
  states : Bitvec.t;
  card : int;
  fathers : int list;
  children : int list;
  category : int;
}

(* Entry [i * m + j]: bit 0 when [i] is a subset of [j], bit 1 when
   [j] is a subset of [i], bit 2 when they share a child, and above
   [inter_shift] one plus the id of the intersection element (zero when
   disjoint). *)
type relations = int array
type pair = int

type t = { num_states : int; elements : element array; universe : int; rel : relations }

let rel_sub = 1
let rel_super = 2
let rel_share = 4
let inter_shift = 3

(* Element order: decreasing cardinality, then [Bitvec.compare]. Ids are
   positions in this order, so equal sets get equal ids however the
   closure was reached. *)
let by_size a b =
  let c = compare (Bitvec.cardinal b) (Bitvec.cardinal a) in
  if c <> 0 then c else Bitvec.compare a b

(* Binary search in the element order; [nth i] is the [i]-th set. *)
let search n nth states =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = by_size states (nth mid) in
      if c = 0 then Some mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 n

let find_in sets states = search (Array.length sets) (Array.get sets) states
let find t states = search (Array.length t.elements) (fun i -> t.elements.(i).states) states

(* The static relation table over sorted, intersection-closed [sets].
   [carried.(i)], when [>= 0], is the id of set [i] in [prev], whose
   table already holds every relation between two carried sets; only
   the pairs touching a new set are computed. *)
let relations sets ~prev ~carried =
  let m = Array.length sets in
  let rel = Array.make (m * m) 0 in
  let pm = Array.length prev.elements in
  let to_new = Array.make pm 0 in
  Array.iteri (fun i o -> if o >= 0 then to_new.(o) <- i) carried;
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      let oi = carried.(i) and oj = carried.(j) in
      rel.((i * m) + j) <-
        (if oi >= 0 && oj >= 0 then
           let r = prev.rel.((oi * pm) + oj) in
           let code = r lsr inter_shift in
           (r land (rel_sub lor rel_super)) lor if code = 0 then 0 else (1 + to_new.(code - 1)) lsl inter_shift
         else
           let a = sets.(i) and b = sets.(j) in
           let code =
             let common = Bitvec.inter a b in
             if Bitvec.is_empty common then 0
             else
               match find_in sets common with
               | Some kid -> 1 + kid
               | None -> assert false (* [sets] is intersection-closed *)
           in
           (if Bitvec.subset a b then rel_sub else 0)
           lor (if Bitvec.subset b a then rel_super else 0)
           lor (code lsl inter_shift))
    done
  done;
  rel

(* The input graph read off the relation table. Strict supersets come
   before [i] in the sorted order; a father is a minimal one. *)
let assemble ~num_states sets rel =
  let m = Array.length sets in
  let sub i j = rel.((i * m) + j) land rel_sub <> 0 in
  let fathers = Array.make m [] and children = Array.make m [] in
  for i = 0 to m - 1 do
    let supers = ref [] in
    for j = 0 to i - 1 do
      if sub i j then supers := j :: !supers
    done;
    let minimal j = not (List.exists (fun j' -> j' <> j && sub j' j) !supers) in
    let fs = List.filter minimal !supers in
    fathers.(i) <- fs;
    List.iter (fun j -> children.(j) <- i :: children.(j)) fs;
    (* Two fathers of [i] share it as a child. *)
    List.iter
      (fun a -> List.iter (fun b -> rel.((a * m) + b) <- rel.((a * m) + b) lor rel_share) fs)
      fs
  done;
  let universe = 0 in
  assert (Bitvec.is_full sets.(universe));
  let elements =
    Array.init m (fun i ->
        let category =
          if i = universe then 0
          else
            match fathers.(i) with
            | [ f ] -> if f = universe then 1 else 3
            | _ :: _ :: _ -> 2
            | [] -> assert false (* every non-universe set is below the universe *)
        in
        {
          id = i;
          states = sets.(i);
          card = Bitvec.cardinal sets.(i);
          fathers = fathers.(i);
          children = children.(i);
          category;
        })
  in
  { num_states; elements; universe; rel }

let empty_poset = { num_states = 0; elements = [||]; universe = 0; rel = [||] }

(* The universe and every singleton: the closure of no constraint. *)
let base num_states =
  let sets =
    List.sort_uniq by_size
      (Bitvec.full num_states :: List.init num_states (fun s -> Bitvec.of_list num_states [ s ]))
    |> Array.of_list
  in
  let carried = Array.make (Array.length sets) (-1) in
  assemble ~num_states sets (relations sets ~prev:empty_poset ~carried)

(* For an intersection-closed family F, closure (F + g) is F plus every
   nonempty [g AND f], f in F: two such sets meet in [g AND (f AND f')],
   again of that form. The new sets are merged into the sorted order. *)
let extend t g =
  let old = Array.map (fun e -> e.states) t.elements in
  if Bitvec.is_empty g || find_in old g <> None then t
  else begin
    let fresh =
      Array.fold_left
        (fun acc f ->
          let i = Bitvec.inter g f in
          if Bitvec.is_empty i || find_in old i <> None then acc else i :: acc)
        [] old
      |> List.sort_uniq by_size |> Array.of_list
    in
    let m = Array.length old + Array.length fresh in
    let sets = Array.make m g and carried = Array.make m (-1) in
    let rec merge i a b =
      if i < m then
        if b >= Array.length fresh || (a < Array.length old && by_size old.(a) fresh.(b) < 0)
        then begin
          sets.(i) <- old.(a);
          carried.(i) <- a;
          merge (i + 1) (a + 1) b
        end
        else begin
          sets.(i) <- fresh.(b);
          merge (i + 1) a (b + 1)
        end
    in
    merge 0 0 0;
    assemble ~num_states:t.num_states sets (relations sets ~prev:t ~carried)
  end

let build ~num_states ics = List.fold_left extend (base num_states) ics

(* The face-embedding search reads these in its innermost loop: one
   array read per pair, then masks. *)
let[@inline] pair t i j = t.rel.((i * Array.length t.elements) + j)
let[@inline] subset r = r land rel_sub <> 0
let[@inline] superset r = r land rel_super <> 0
let[@inline] inter_id r = (r lsr inter_shift) - 1
let[@inline] share_children r = r land rel_share <> 0

let min_level e =
  let rec bits k acc = if acc >= e.card then k else bits (k + 1) (acc * 2) in
  bits 0 1

let singleton_ids t =
  let ids = Array.make t.num_states (-1) in
  Array.iter
    (fun e ->
      if e.card = 1 then
        match Bitvec.first_set e.states with
        | Some s -> ids.(s) <- e.id
        | None -> assert false)
    t.elements;
  ids

(* --- Lower bounds on the embedding dimension (Section 3.3.2) ---------- *)

let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let ceil_log2 n =
  let rec bits k acc = if acc >= n then k else bits (k + 1) (acc * 2) in
  bits 0 1

(* Condition 1: enough faces of each cardinality class. *)
let count_cond1 t k0 =
  let max_level = Hashtbl.create 7 in
  Array.iter
    (fun e ->
      if e.id <> t.universe then
        let l = min_level e in
        Hashtbl.replace max_level l (1 + Option.value ~default:0 (Hashtbl.find_opt max_level l)))
    t.elements;
  let fits k =
    Hashtbl.fold
      (fun l need ok ->
        ok && k >= l && need <= binomial k l * (1 lsl (k - l)))
      max_level true
  in
  let rec grow k = if fits k then k else grow (k + 1) in
  grow k0

(* Condition 2: a face of level l has k - l minimal including faces; a
   constraint at its minimum level needs one per father. *)
let count_cond2 t k0 =
  Array.fold_left
    (fun k e ->
      if e.id = t.universe then k else max k (min_level e + List.length e.fathers))
    k0 t.elements

(* Condition 3: virtual states of uneven constraints must fit in the
   unused vertices, assuming the densest packing (at most [k] uneven
   constraints can share one virtual state). *)
let count_cond3 t k0 =
  let n = t.num_states in
  let uneven =
    Array.to_list t.elements
    |> List.filter_map (fun e ->
           if e.id = t.universe || e.card < 2 then None
           else
             let v = (1 lsl min_level e) - e.card in
             if v > 0 then Some v else None)
  in
  if uneven = [] then k0
  else begin
    let rec try_dim k =
      if k >= n then k
      else begin
        (* Rounds of the densest packing: each round identifies one fresh
           virtual state shared by up to [k] uneven constraints. *)
        let vrt = List.sort compare uneven in
        let rec rounds vrt count =
          if List.for_all (fun v -> v = 0) vrt then count
          else
            let vrt = List.sort compare vrt in
            let remaining = ref k in
            let vrt =
              List.map
                (fun v ->
                  if v > 0 && !remaining > 0 then begin
                    decr remaining;
                    v - 1
                  end
                  else v)
                vrt
            in
            rounds vrt (count + 1)
        in
        let iter_count = rounds vrt 0 in
        if (1 lsl k) - n >= iter_count then k else try_dim (k + 1)
      end
    in
    try_dim k0
  end

let mincube_dim t =
  let k0 = ceil_log2 t.num_states in
  let k0 = max k0 1 in
  count_cond3 t (count_cond2 t (count_cond1 t k0))

let pp ppf t =
  Format.fprintf ppf "@[<v>input poset over %d states:@," t.num_states;
  Array.iter
    (fun e ->
      Format.fprintf ppf "  [%d] %a card=%d cat=%d fathers=%a@," e.id Bitvec.pp e.states e.card
        e.category
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
        e.fathers)
    t.elements;
  Format.fprintf ppf "@]"
