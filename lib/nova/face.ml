type t = { mask : int; bits : int }

let all_bits k =
  if k < 0 || k > 62 then invalid_arg "Face: dimension must be within 0..62";
  (1 lsl k) - 1

let full k =
  ignore (all_bits k);
  { mask = 0; bits = 0 }

let vertex k code =
  let all = all_bits k in
  if code land lnot all <> 0 then invalid_arg "Face.vertex: code out of range";
  { mask = all; bits = code }

let make k ~mask ~bits =
  let all = all_bits k in
  if mask land lnot all <> 0 then invalid_arg "Face.make: mask out of range";
  { mask; bits = bits land mask }

let level k f = k - Bitvec.popcount_word f.mask
let cardinality k f = 1 lsl level k f

let inter a b =
  if a.mask land b.mask land (a.bits lxor b.bits) <> 0 then None
  else Some { mask = a.mask lor b.mask; bits = a.bits lor b.bits }

let contains a b = a.mask land lnot b.mask = 0 && (a.bits lxor b.bits) land a.mask = 0

let supercube a b =
  let mask = a.mask land b.mask land lnot (a.bits lxor b.bits) in
  { mask; bits = a.bits land mask }

let contains_code f code = (code lxor f.bits) land f.mask = 0

let vertices k f =
  let free = lnot f.mask land all_bits k in
  (* Positions of the unspecified dimensions, ascending. *)
  let xs =
    List.filter (fun d -> free land (1 lsl d) <> 0) (List.init k (fun d -> d))
  in
  let nx = List.length xs in
  List.init (1 lsl nx) (fun v ->
      let code = ref f.bits in
      List.iteri (fun i d -> if v land (1 lsl i) <> 0 then code := !code lor (1 lsl d)) xs;
      !code)
  |> List.sort compare

(* All subsets of the set bits of [from] with exactly [m] elements, as a
   sequence of masks in lexicographic order of positions. *)
let rec choose_bits from m : int Seq.t =
  if m = 0 then Seq.return 0
  else if Bitvec.popcount_word from < m then Seq.empty
  else
    match
      let rec lowest d = if from land (1 lsl d) <> 0 then d else lowest (d + 1) in
      lowest 0
    with
    | low ->
        let rest = from land lnot (1 lsl low) in
        Seq.append
          (Seq.map (fun s -> s lor (1 lsl low)) (choose_bits rest (m - 1)))
          (choose_bits rest m)

(* All assignments of the set bits of [mask]: 2^popcount values. *)
let assignments mask : int Seq.t =
  let positions = List.filter (fun d -> mask land (1 lsl d) <> 0) (List.init 62 (fun d -> d)) in
  let n = List.length positions in
  Seq.init (1 lsl n) (fun v ->
      List.fold_left
        (fun (acc, i) d -> ((if v land (1 lsl i) <> 0 then acc lor (1 lsl d) else acc), i + 1))
        (0, 0) positions
      |> fst)

let faces_at_level k l =
  if l < 0 || l > k then Seq.empty
  else
    let all = all_bits k in
    Seq.concat_map
      (fun xmask ->
        let mask = all land lnot xmask in
        Seq.map (fun bits -> { mask; bits }) (assignments mask))
      (choose_bits all l)

let subfaces_at_level k f l =
  let lf = level k f in
  if l < 0 || l > lf then Seq.empty
  else
    let free = lnot f.mask land all_bits k in
    Seq.concat_map
      (fun keep_x ->
        let newly_specified = free land lnot keep_x in
        Seq.map
          (fun bits -> { mask = f.mask lor newly_specified; bits = f.bits lor bits })
          (assignments newly_specified))
      (choose_bits free l)

let superfaces_at_level k f l =
  let lf = level k f in
  if l < lf || l > k then Seq.empty
  else
    Seq.map
      (fun keep -> { mask = keep; bits = f.bits land keep })
      (choose_bits f.mask (k - l))

let equal a b = a.mask = b.mask && a.bits = b.bits
let compare a b = Stdlib.compare (a.mask, a.bits) (b.mask, b.bits)

let pp k ppf f =
  for d = 0 to k - 1 do
    let c =
      if f.mask land (1 lsl d) = 0 then 'x'
      else if f.bits land (1 lsl d) <> 0 then '1'
      else '0'
    in
    Format.pp_print_char ppf c
  done

let to_string k f = Format.asprintf "%a" (pp k) f
