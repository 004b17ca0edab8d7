(* The calibration kernel: a fixed, deterministic slice of the kind of
   work the encoder does (small int-array set algebra, hashing, list
   sorting, minor-heap churn), timed with the wall clock. It links no
   library of the repository, so no change to the program can move it;
   the benchmark divides every timing by it to cancel the host's speed
   drift.

   Protocol: each line [N] on stdin runs the kernel N units and answers
   one line with the elapsed wall seconds. EOF ends the process. *)

let sink = ref 0

let one_unit () =
  let st = ref 0x2545F491 in
  let next () =
    st := !st * 48271 mod 0x7fffffff;
    !st
  in
  let vecs = Array.init 192 (fun _ -> Array.init 4 (fun _ -> next ())) in
  let tbl = Hashtbl.create 1024 in
  for i = 0 to 191 do
    for j = i to min 191 (i + 23) do
      let v = Array.map2 ( land ) vecs.(i) vecs.(j) in
      let key = Printf.sprintf "%x.%x" v.(0) v.(1) in
      match Hashtbl.find_opt tbl key with
      | Some w -> Hashtbl.replace tbl key (Array.map2 ( lor ) v w)
      | None -> Hashtbl.add tbl key v
    done
  done;
  let l = List.init 3000 (fun _ -> next () land 0xffff) in
  sink := !sink + Hashtbl.length tbl + List.length (List.sort_uniq compare l)

let run units =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to units do
    one_unit ()
  done;
  Unix.gettimeofday () -. t0

let () =
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let units = try max 1 (int_of_string (String.trim line)) with _ -> 1 in
        Printf.printf "%.9f\n%!" (run units);
        loop ()
  in
  loop ();
  if !sink < 0 then exit 1
