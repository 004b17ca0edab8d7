(* The benchmark's traced replay: runs the requests of a plan in-process
   through the program's own entry points, with a span (name, start, end,
   parent) around each of them, kept in memory and written out at the
   end as one JSON line per request. The entry points are the calls the
   program itself makes:
   - oneshot: [Kiss.parse_result], [Harness.Driver.report] and the
     [Serve.Render] / [Pla.print] output of [nova encode --pla];
   - warm: a daemon cache hit, [Exec.Cache.find] then [Serve.Render]
     (the entry must already be in DIR);
   - cold: a daemon cache miss, [Exec.Cache.find], [Exec.Job.run],
     [Exec.Cache.store] then [Serve.Render].
   The layers below them (constraints, symbolic minimization, the
   encoder's rung, ESPRESSO, certification) are timed by the program's
   own Instrument timers, which the replay enables; each request's
   counter and timer values are written beside its spans.

     tracer.exe --mode oneshot|warm|cold --plan FILE --out FILE [--cache DIR]

   A plan line is [rid TAB spans TAB machine TAB algorithm TAB kiss2-path];
   [spans] is 1 to record the request's spans and 0 to run it bare, so
   the walls of the two kinds give the tracing overhead. *)

let t_base = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. t_base

(* --- spans ---------------------------------------------------------------- *)

type span = { name : string; t0 : float; mutable t1 : float; parent : int }

let spans_on = ref false
let recorded : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []

let span name f =
  if not !spans_on then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; t0 = now (); t1 = nan; parent } in
    recorded := s :: !recorded;
    stack := !count :: !stack;
    incr count;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack)
      f
  end

let take_spans () =
  let l = List.rev !recorded in
  recorded := [];
  count := 0;
  l

(* --- JSON out --------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

(* --- the requests ----------------------------------------------------------- *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("tracer: " ^ s); exit 1) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_machine ~name ~file text =
  span "fsm.parse" (fun () ->
      match Kiss.parse_result ~name ~file text with
      | Ok m -> m
      | Error e -> fail "%s" (Kiss.error_to_string e))

let or_fail what = function
  | Ok x -> x
  | Error e -> fail "%s: %s" what (Nova_error.to_string e)

(* What [nova encode --pla] does once the machine is read. *)
let oneshot ~name ~path text algo =
  let m = parse_machine ~name ~file:path text in
  let budget = Budget.unlimited in
  let outcome, r =
    span "driver.report" (fun () -> or_fail name (Harness.Driver.report ~budget m algo))
  in
  let encoding = outcome.Harness.Driver.encoding in
  let payload =
    span "cli.render" (fun () ->
        Serve.Render.encode_text m encoding ~num_cubes:r.Encoded.num_cubes ~area:r.Encoded.area
          ~onehot:(Serve.Render.onehot_reference ~budget m)
        ^ Format.asprintf "%a"
            (fun ppf () ->
              Pla.print ppf r.Encoded.cover
                ~num_binary_vars:(m.Fsm.num_inputs + encoding.Encoding.nbits))
            ())
  in
  (m, encoding, payload)

let serve_render m (s : Exec.Job.success) =
  span "serve.render" (fun () ->
      let onehot =
        span "render.onehot" (fun () -> Serve.Render.onehot_reference ~budget:(Budget.create ()) m)
      in
      span "render.text" (fun () ->
          let payload =
            Serve.Render.encode_text m s.Exec.Job.encoding ~num_cubes:s.Exec.Job.num_cubes
              ~area:s.Exec.Job.area ~onehot
          in
          ignore (Serve.Protocol.ok_response ~origin:"cached" ~payload ());
          payload))

(* What the daemon does for one plain encode request line. *)
let served ~cache ~warm ~name text algo =
  let line =
    Serve.Protocol.encode_line ~algorithm:(Harness.Driver.name algo)
      (Serve.Protocol.Kiss2 { name = Some name; text })
  in
  let req =
    span "serve.parse" (fun () ->
        match Serve.Protocol.parse_request line with
        | Ok { Serve.Protocol.request = Serve.Protocol.Encode r; _ } -> r
        | Ok _ -> fail "request line did not parse as encode"
        | Error (_, e) -> fail "%s" (Nova_error.to_string e))
  in
  let m = parse_machine ~name ~file:"<kiss2>" text in
  let task =
    Exec.Job.task ?bits:req.Serve.Protocol.bits ~fallback:req.Serve.Protocol.fallback m
      req.Serve.Protocol.algorithm
  in
  let found = span "exec.cache_find" (fun () -> Exec.Cache.find cache task) in
  let s =
    match (found, warm) with
    | Some s, true -> s
    | None, false ->
        let s = span "exec.job_run" (fun () -> or_fail name (Exec.Job.run task)) in
        span "exec.cache_store" (fun () -> Exec.Cache.store cache task s);
        s
    | Some _, false -> fail "%s: a cold request hit the cache" name
    | None, true -> fail "%s: a warm request missed the cache" name
  in
  (m, s.Exec.Job.encoding, serve_render m s)

(* The share of the machine's input (face) constraints the final
   encoding satisfies; computed after the request, outside its wall. *)
let ic_satisfied_ratio m encoding =
  let ics = Constraints.of_symbolic (Symbolic.of_fsm m) in
  if ics = [] then nan
  else float_of_int (Constraints.num_satisfied encoding ics) /. float_of_int (List.length ics)

(* --- main -------------------------------------------------------------------- *)

let cap_trips =
  Metrics.Registry.counter ~labels:[ ("reason", "work") ] "nova_budget_trips_total"

let () =
  let mode = ref "" and plan = ref "" and out = ref "" and cache_dir = ref "" in
  Arg.parse
    [
      ("--mode", Arg.Set_string mode, "oneshot|warm|cold");
      ("--plan", Arg.Set_string plan, "FILE");
      ("--out", Arg.Set_string out, "FILE");
      ("--cache", Arg.Set_string cache_dir, "DIR");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "tracer.exe --mode M --plan FILE --out FILE [--cache DIR]";
  let requests =
    read_file !plan |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match String.split_on_char '\t' l with
           | [ rid; spans; name; algo; path ] -> (
               match Harness.Driver.algorithm_of_name algo with
               | Some a -> (rid, spans = "1", name, a, path)
               | None -> fail "unknown algorithm %S" algo)
           | _ -> fail "bad plan line %S" l)
  in
  let cache () =
    if !cache_dir = "" then fail "--cache is required in mode %s" !mode;
    Exec.Cache.open_dir !cache_dir
  in
  let run =
    match !mode with
    | "oneshot" -> oneshot
    | "warm" | "cold" ->
        let c = cache () in
        let warm = !mode = "warm" in
        fun ~name ~path:_ text algo -> served ~cache:c ~warm ~name text algo
    | m -> fail "unknown mode %S" m
  in
  Instrument.enable ();
  let oc = open_out_bin !out in
  List.iter
    (fun (rid, traced, name, algo, path) ->
      let text = read_file path in
      spans_on := traced;
      Instrument.reset ();
      let trips0 = Metrics.Registry.counter_value cap_trips in
      let t0 = now () in
      let m, encoding, payload = span "request" (fun () -> run ~name ~path text algo) in
      let t1 = now () in
      let spans = take_spans () in
      let counters = List.map (fun (n, v) -> (n, string_of_int v)) (Instrument.counters ()) in
      let timers = List.map (fun (n, s, _) -> (n ^ ".s", json_float s)) (Instrument.timers ()) in
      let trips = Metrics.Registry.counter_value cap_trips - trips0 in
      let counters =
        counters @ timers
        @ [
            ("nova.cap_trips", string_of_int trips);
            ("nova.ic_satisfied_ratio", json_float (ic_satisfied_ratio m encoding));
          ]
      in
      output_string oc
        (json_obj
           [
             ("rid", json_string rid);
             ("traced", string_of_bool traced);
             ("wall_s", json_float (t1 -. t0));
             ( "spans",
               "["
               ^ String.concat ","
                   (List.map
                      (fun s ->
                        Printf.sprintf "[%s,%.9f,%.9f,%d]" (json_string s.name) s.t0 s.t1
                          s.parent)
                      spans)
               ^ "]" );
             ("counters", json_obj counters);
             ("payload", json_string payload);
           ]);
      output_char oc '\n')
    requests;
  close_out oc
