(* Structured tracing: an explicit span tree over the whole encoding
   pipeline, with one track per domain so parallel portfolio runs render
   as parallel lanes.

   Everything is default-off: while [on] is false every probe is a load
   and a branch, exactly like [Instrument]. Enable with [enable ()] — or
   NOVA_TRACE=1 in the environment — run the workload, then [export] the
   buffered events as Chrome trace-event JSON (loadable in Perfetto or
   chrome://tracing) or as an append-only JSONL event log. Both exports
   are lossless views of the same buffer and are written atomically
   (tmp + rename, the cache's idiom).

   Span model
   - [with_span name f] emits a Begin event, runs [f], and emits the
     matching End event (exception-safe). Spans on one track nest
     strictly (a per-track stack), so Begin/End pairs per track are
     balanced and form a tree: the run's span tree.
   - Spans carry typed attributes. A child span *inherits* the
     attributes of its enclosing span on the same track (and may
     override them), so a deep espresso phase span still knows which
     machine and algorithm it serves without threading those through
     every call site.
   - [instant name] emits a point event (degradation, budget trip,
     cache hit, race win...), also inheriting the open span's
     attributes.
   - The track of an event is the integer id of the domain that emitted
     it: Exec.Pool workers land on their own lanes automatically.

   Determinism invariant: tracing writes nothing anywhere except its own
   in-memory buffer, and at export time the one file it was asked for —
   never stdout. Traced and untraced runs (and jobs=1 vs jobs=N runs)
   therefore produce byte-identical stdout.

   Timestamps are microseconds since [enable]. Within one track they are
   clamped to be non-decreasing, so per-track monotonicity is an
   invariant of the buffer (scripts/validate_trace checks it), not an
   accident of the clock. *)

type value = String of string | Int of int | Float of float | Bool of bool

type attrs = (string * value) list

type kind = Begin | End | Instant

type event = { kind : kind; name : string; ts : float; track : int; attrs : attrs }

let on =
  ref
    (match Sys.getenv_opt "NOVA_TRACE" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let enabled () = !on

(* One lock for the buffer, the per-track stacks and the metadata; held
   for a few list operations at most, never while running user code. *)
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Events are consed and reversed at export: appends are O(1) under the
   lock, and the export order is the emission order. *)
let events : event list ref = ref []
let num_events = ref 0

(* Per-track state: the stack of open spans (name and merged attrs, for
   inheritance) and the last timestamp handed out (for monotonicity). *)
type track_state = { mutable stack : (string * attrs) list; mutable last_ts : float }

let tracks : (int, track_state) Hashtbl.t = Hashtbl.create 8

(* The track that called [enable]: named "main" in the exports. *)
let main_track = ref 0

let meta : attrs ref = ref []

let t0 = ref 0.

let enable () =
  locked @@ fun () ->
  t0 := Unix.gettimeofday ();
  main_track := (Domain.self () :> int);
  on := true

let disable () = on := false

let reset () =
  locked @@ fun () ->
  events := [];
  num_events := 0;
  Hashtbl.reset tracks;
  meta := []

let event_count () = locked (fun () -> !num_events)

let set_meta kvs =
  if !on then
    locked @@ fun () ->
    List.iter
      (fun (k, v) -> meta := (k, v) :: List.remove_assoc k !meta)
      kvs

(* Merge [over] on top of [base]: [over] wins on duplicate keys, and the
   base order is kept stable so exported args are deterministic. *)
let merge_attrs base over =
  List.filter (fun (k, _) -> not (List.mem_assoc k over)) base @ over

let track_state track =
  match Hashtbl.find_opt tracks track with
  | Some s -> s
  | None ->
      let s = { stack = []; last_ts = 0. } in
      Hashtbl.add tracks track s;
      s

(* Must be called under [mutex]. *)
let append kind name attrs =
  let track = (Domain.self () :> int) in
  let st = track_state track in
  let ts =
    let raw = (Unix.gettimeofday () -. !t0) *. 1e6 in
    if raw > st.last_ts then raw else st.last_ts
  in
  st.last_ts <- ts;
  events := { kind; name; ts; track; attrs } :: !events;
  incr num_events;
  st

let instant ?(attrs = []) name =
  if !on then
    locked @@ fun () ->
    let track = (Domain.self () :> int) in
    let inherited = match (track_state track).stack with (_, a) :: _ -> a | [] -> [] in
    ignore (append Instant name (merge_attrs inherited attrs))

let annotate attrs =
  if !on then
    locked @@ fun () ->
    let st = track_state (Domain.self () :> int) in
    match st.stack with
    | [] -> ()
    | (name, a) :: rest -> st.stack <- (name, merge_attrs a attrs) :: rest

let span_begin name attrs =
  locked @@ fun () ->
  let track = (Domain.self () :> int) in
  let st = track_state track in
  let inherited = match st.stack with (_, a) :: _ -> a | [] -> [] in
  let merged = merge_attrs inherited attrs in
  st.stack <- (name, merged) :: st.stack;
  ignore (append Begin name merged)

let span_end name end_attrs =
  locked @@ fun () ->
  let st = track_state (Domain.self () :> int) in
  (match st.stack with
  | (n, _) :: rest when n = name -> st.stack <- rest
  | _ -> () (* unbalanced end: drop the pop, the validator will flag it *));
  ignore (append End name end_attrs)

let with_span ?(attrs = []) name f =
  if not !on then f ()
  else begin
    span_begin name attrs;
    Fun.protect ~finally:(fun () -> span_end name []) f
  end

(* Like [with_span] but [f] also returns the attributes to attach to the
   End event (result sizes, verdicts, budget spent...). *)
let with_span_result ?(attrs = []) name f =
  if not !on then fst (f ())
  else begin
    span_begin name attrs;
    let ended = ref false in
    Fun.protect
      ~finally:(fun () -> if not !ended then span_end name [])
      (fun () ->
        let v, end_attrs = f () in
        ended := true;
        span_end name end_attrs;
        v)
  end

(* --- export ------------------------------------------------------------ *)

module J = Json_min

let json_of_attrs attrs =
  J.Obj
    (List.map
       (fun (k, v) ->
         ( k,
           match v with
           | String s -> J.Str s
           | Int i -> J.int i
           | Float f -> J.Num f
           | Bool b -> J.Bool b ))
       attrs)

(* A consistent snapshot of the buffer, in emission order, plus the
   per-track names for the exports. *)
let snapshot () =
  locked @@ fun () ->
  let evs = List.rev !events in
  let track_ids =
    Hashtbl.fold (fun id _ acc -> id :: acc) tracks [] |> List.sort compare
  in
  (evs, track_ids, !meta, !main_track)

let track_name ~main id = if id = main then "main" else Printf.sprintf "domain-%d" id

let phase = function Begin -> "B" | End -> "E" | Instant -> "i"

(* Chrome trace-event JSON: the run manifest rides in "metadata" (shown
   by Perfetto under Info & stats) and per-track thread_name metadata
   events label the lanes. *)
let export_chrome ~path () =
  let evs, track_ids, meta, main = snapshot () in
  let thread_name id =
    J.Obj
      [
        ("name", J.Str "thread_name"); ("ph", J.Str "M"); ("pid", J.int 1); ("tid", J.int id);
        ("args", J.Obj [ ("name", J.Str (track_name ~main id)) ]);
      ]
  in
  let event e =
    J.Obj
      ([ ("name", J.Str e.name); ("ph", J.Str (phase e.kind)); ("ts", J.Num e.ts);
         ("pid", J.int 1); ("tid", J.int e.track) ]
      @ (match e.kind with Instant -> [ ("s", J.Str "t") ] | Begin | End -> [])
      @ [ ("args", json_of_attrs e.attrs) ])
  in
  J.write_file path
    [
      J.Obj
        [
          ("traceEvents", J.Arr (List.map thread_name track_ids @ List.map event evs));
          ("displayTimeUnit", J.Str "ms");
          ("metadata", json_of_attrs meta);
        ];
    ]

(* JSONL: one event per line, the first line being the run manifest —
   an append-only log a tail-reader can follow record by record. *)
let export_jsonl ~path () =
  let evs, track_ids, meta, main = snapshot () in
  let tracks =
    J.Obj (List.map (fun id -> (string_of_int id, J.Str (track_name ~main id))) track_ids)
  in
  let event e =
    J.Obj
      [
        ("type", J.Str (phase e.kind)); ("ts", J.Num e.ts); ("track", J.int e.track);
        ("name", J.Str e.name); ("attrs", json_of_attrs e.attrs);
      ]
  in
  J.write_file path
    (J.Obj [ ("type", J.Str "meta"); ("meta", json_of_attrs meta); ("tracks", tracks) ]
    :: List.map event evs)

(* Format dispatch on the extension: .jsonl is the event log, anything
   else the Chrome trace. *)
let export ~path () =
  if Filename.check_suffix path ".jsonl" then export_jsonl ~path ()
  else export_chrome ~path ()
