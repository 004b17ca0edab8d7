(* Operation counters, wall-clock phase timers and recursion-depth
   histograms for the hot two-level kernels.

   Everything is default-off: while [on] is false every probe is a load
   and a branch, so instrumented code costs nearly nothing in production
   runs. Enable with [enable ()] — or NOVA_INSTRUMENT=1 in the
   environment — then read the registries with [counters]/[timers]/
   [histograms], pretty-print with [report], or serialize with
   [to_json].

   Probes register themselves by name at module-initialization time;
   [find_or_create] keeps a name unique across libraries so the same
   logical counter can be bumped from several call sites.

   Domain safety: probes may fire concurrently from several domains (the
   [Exec] pool runs one encoding job per domain). Counter bumps are
   [Atomic] increments; timer and histogram mutation and every registry
   operation take [mutex]. The off path is untouched: a plain load of
   [on] and a branch, no lock. *)

let on =
  ref
    (match Sys.getenv_opt "NOVA_INSTRUMENT" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let enable () = on := true
let disable () = on := false
let enabled () = !on

(* One lock for the registries and all non-atomic probe state. Probes
   hold it for a few loads/stores at most, and never while running user
   code, so contention cannot deadlock. *)
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

type counter = { c_name : string; count : int Atomic.t }

(* [running] holds the ids of the domains currently inside [time] on
   this timer — the reentrancy debug assertion below keys on it. *)
type timer = {
  t_name : string;
  mutable seconds : float;
  mutable t_calls : int;
  mutable running : int list;
}

(* Depth histograms: bucket [i] counts observations of value [i];
   anything >= the bucket count lands in [overflow]. *)
type histogram = { h_name : string; h_buckets : int array; mutable overflow : int }

(* Registries are hash tables keyed by name, so [find_or_create] is
   O(1) however many probes exist; every read-out sorts by name, which
   keeps [report]/[to_json] deterministic regardless of registration
   (hashing) order. *)
let all_counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let all_timers : (string, timer) Hashtbl.t = Hashtbl.create 64
let all_histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let find_or_create registry ~name ~make =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some x -> x
  | None ->
      let x = make () in
      Hashtbl.add registry name x;
      x

let counter name =
  find_or_create all_counters ~name ~make:(fun () -> { c_name = name; count = Atomic.make 0 })

let bump c = if !on then Atomic.incr c.count
let add c n = if !on then ignore (Atomic.fetch_and_add c.count n)

let timer name =
  find_or_create all_timers ~name
    ~make:(fun () -> { t_name = name; seconds = 0.; t_calls = 0; running = [] })

(* [time t f] accounts the wall-clock time of [f ()] to [t]. Safe under
   exceptions. Nested use of the *same* timer on one domain would
   double-count its span, so timers must only be attached to
   non-reentrant entry points — enforced here by a debug assertion on
   the instrumented path (the off path stays a load and a branch).
   Concurrent use from several domains is fine and accumulates the
   domains' spans (total busy time, not wall-clock). *)
let time t f =
  if not !on then f ()
  else begin
    let d = (Domain.self () :> int) in
    locked (fun () ->
        if List.mem d t.running then
          invalid_arg
            (Printf.sprintf
               "Instrument.time: timer %S re-entered on the same domain (nested use \
                double-counts; attach timers to non-reentrant entry points only)"
               t.t_name);
        t.running <- d :: t.running);
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Unix.gettimeofday () -. t0 in
        locked (fun () ->
            t.running <- List.filter (fun x -> x <> d) t.running;
            t.seconds <- t.seconds +. dt;
            t.t_calls <- t.t_calls + 1))
      f
  end

let default_buckets = 32

let histogram ?(buckets = default_buckets) name =
  find_or_create all_histograms ~name
    ~make:(fun () -> { h_name = name; h_buckets = Array.make buckets 0; overflow = 0 })

let observe h v =
  if !on then
    locked @@ fun () ->
    if v >= 0 && v < Array.length h.h_buckets then
      h.h_buckets.(v) <- h.h_buckets.(v) + 1
    else h.overflow <- h.overflow + 1

let reset () =
  locked @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c.count 0) all_counters;
  Hashtbl.iter
    (fun _ t ->
      t.seconds <- 0.;
      t.t_calls <- 0)
    all_timers;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 (Array.length h.h_buckets) 0;
      h.overflow <- 0)
    all_histograms

(* Names are unique per registry, so sorting the tuples sorts by name. *)
let counters () =
  locked (fun () ->
      Hashtbl.fold (fun _ c acc -> (c.c_name, Atomic.get c.count) :: acc) all_counters [])
  |> List.sort compare

let timers () =
  locked (fun () ->
      Hashtbl.fold (fun _ t acc -> (t.t_name, t.seconds, t.t_calls) :: acc) all_timers [])
  |> List.sort compare

let histograms () =
  locked (fun () ->
      Hashtbl.fold
        (fun _ h acc -> (h.h_name, Array.copy h.h_buckets, h.overflow) :: acc)
        all_histograms [])
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* Highest non-empty bucket, so reports and JSON stay short. *)
let trimmed_buckets buckets =
  let hi = ref (-1) in
  Array.iteri (fun i n -> if n > 0 then hi := i) buckets;
  Array.sub buckets 0 (!hi + 1)

let report ppf () =
  Format.fprintf ppf "@[<v>== instrumentation ==@,";
  List.iter
    (fun (name, n) -> if n > 0 then Format.fprintf ppf "%-40s %12d@," name n)
    (counters ());
  List.iter
    (fun (name, s, calls) ->
      if calls > 0 then Format.fprintf ppf "%-40s %10.4fs over %d calls@," name s calls)
    (timers ());
  List.iter
    (fun (name, buckets, overflow) ->
      let trimmed = trimmed_buckets buckets in
      if Array.length trimmed > 0 || overflow > 0 then begin
        Format.fprintf ppf "%-40s [" name;
        Array.iteri
          (fun i n -> Format.fprintf ppf "%s%d" (if i > 0 then " " else "") n)
          trimmed;
        Format.fprintf ppf "]%s@,"
          (if overflow > 0 then Printf.sprintf " +%d deeper" overflow else "")
      end)
    (histograms ());
  Format.fprintf ppf "@]"

(* The registries as one JSON object; names stay sorted, as in [report]. *)
let to_json () =
  Json_min.(
    Obj
      [
        ("counters", Obj (List.map (fun (name, n) -> (name, int n)) (counters ())));
        ( "timers",
          Obj
            (List.map
               (fun (name, s, calls) -> (name, Obj [ ("seconds", Num s); ("calls", int calls) ]))
               (timers ())) );
        ( "histograms",
          Obj
            (List.map
               (fun (name, buckets, overflow) ->
                 ( name,
                   Obj
                     [
                       ("buckets", Arr (List.map int (Array.to_list (trimmed_buckets buckets))));
                       ("overflow", int overflow);
                     ] ))
               (histograms ())) );
      ])
