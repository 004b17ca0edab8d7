(* Search-tree pins for the face-embedding engine.

   [Embed.solve] runs under a work cap counted in ticks, so a change that
   makes ticks cheaper must leave the search tree itself untouched: the
   same faces tried in the same order, the same verifications, the same
   cascades. These counts were recorded through [Instrument] before the
   verification split into a static relation table and allocation-free
   face arithmetic; any drift means the search explores a different
   tree, whatever the encodings say. *)

let pins =
  (* (machine, algorithm, work_ticks, verify_calls, cascade_calls) *)
  [
    ("bbara", Harness.Driver.Ihybrid, 26735, 26735, 1274);
    ("bbara", Harness.Driver.Iohybrid, 17115, 17115, 3135);
    ("donfile", Harness.Driver.Ihybrid, 62567, 62565, 1862);
    ("donfile", Harness.Driver.Iohybrid, 90912, 90909, 17655);
    ("bbsse", Harness.Driver.Ihybrid, 65975, 65973, 8369);
    ("bbsse", Harness.Driver.Iohybrid, 180993, 180987, 20089);
    ("cse", Harness.Driver.Ihybrid, 132943, 132940, 8937);
    ("cse", Harness.Driver.Iohybrid, 205530, 205527, 17175);
    ("dk16", Harness.Driver.Ihybrid, 190490, 190484, 5753);
    ("dk16", Harness.Driver.Iohybrid, 97955, 97952, 4215);
    ("keyb", Harness.Driver.Ihybrid, 1255, 1255, 221);
    ("keyb", Harness.Driver.Iohybrid, 91174, 91171, 25842);
  ]

let embed_counters = [ "embed.work_ticks"; "embed.verify_calls"; "embed.cascade_calls" ]

let snapshot () =
  let all = Instrument.counters () in
  List.map (fun name -> Option.value ~default:0 (List.assoc_opt name all)) embed_counters

(* Counter deltas across one encode, with instrumentation on only for
   its duration. *)
let measure m algo =
  let was_on = Instrument.enabled () in
  Instrument.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_on then Instrument.disable ())
    (fun () ->
      let before = snapshot () in
      (match Harness.Driver.encode m algo with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "encode failed: %s" (Nova_error.to_string e));
      List.map2 ( - ) (snapshot ()) before)

let test_pins () =
  List.iter
    (fun (nm, algo, ticks, verifies, cascades) ->
      let m = Benchmarks.Suite.find nm in
      let label = Printf.sprintf "%s/%s" nm (Harness.Driver.name algo) in
      match measure m algo with
      | [ t; v; c ] ->
          Alcotest.(check int) (label ^ " work_ticks") ticks t;
          Alcotest.(check int) (label ^ " verify_calls") verifies v;
          Alcotest.(check int) (label ^ " cascade_calls") cascades c
      | _ -> assert false)
    pins

let suite =
  [
    Alcotest.test_case "embed work, verify and cascade counts match the recorded search tree"
      `Quick test_pins;
  ]
