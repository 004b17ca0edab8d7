type algo_spec = {
  algorithm : Harness.Driver.algorithm;
  max_states : int;
}

(* iexact is exponential by construction and has no place on an
   unlimited-budget grid; ihybrid/iohybrid's constraint-embedding search
   measures at roughly n^4.7 on this family, so their ceilings keep a
   full run in minutes (and the quick CI run in seconds), not hours. *)
let algorithms ~quick =
  if quick then
    [
      { algorithm = Harness.Driver.Igreedy; max_states = 64 };
      { algorithm = Harness.Driver.Ihybrid; max_states = 32 };
    ]
  else
    [
      { algorithm = Harness.Driver.Igreedy; max_states = 512 };
      { algorithm = Harness.Driver.Kiss; max_states = 256 };
      { algorithm = Harness.Driver.Ihybrid; max_states = 64 };
      { algorithm = Harness.Driver.Iohybrid; max_states = 64 };
    ]

type point = {
  sample : Measure.sample;
  constraints_s : float;
  encode_s : float;
}

type cell = {
  family : Grid.family;
  algo_name : string;
  points : point list;
  fit : Fit.result;
}

let timer_total pred =
  List.fold_left
    (fun acc (name, s, _) -> if pred name then acc +. s else acc)
    0. (Instrument.timers ())

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Enable instrumentation for the duration of [f], restoring the prior
   state (the phase attribution below reads the pipeline timers). *)
let with_instrument f =
  let was_on = Instrument.enabled () in
  Instrument.enable ();
  Fun.protect ~finally:(fun () -> if not was_on then Instrument.disable ()) f

let run_cell ?(warmup = 1) ?(reps = 5) ~family ~sizes spec =
  with_instrument @@ fun () ->
  let algo_name = Harness.Driver.name spec.algorithm in
  let encode m = Harness.Driver.encode ~budget:Budget.unlimited ~fallback:false m spec.algorithm in
  let points =
    List.filter_map
      (fun size ->
        if size > spec.max_states then None
        else
          let m = Grid.machine family size in
          (* A failing encode (impossible for the default specs, which
             never fail under an unlimited budget) yields no point; the
             fitter sees only sizes that genuinely completed. *)
          match encode m with
          | Error _ -> None
          | Ok _ ->
              Instrument.reset ();
              let sample =
                Measure.sample ~warmup ~reps ~size (fun () -> ignore (encode m))
              in
              let runs = float (warmup + reps) in
              Some
                {
                  sample;
                  constraints_s = timer_total (( = ) "pipeline.constraints") /. runs;
                  encode_s = timer_total (has_prefix "pipeline.rung.") /. runs;
                })
      sizes
  in
  let fit =
    Fit.fit (List.map (fun p -> (float p.sample.Measure.size, p.sample.Measure.time_s)) points)
  in
  { family; algo_name; points; fit }

let run ?(quick = false) ?reps ?progress () =
  let reps = match reps with Some r -> r | None -> if quick then 3 else 5 in
  let sizes = Grid.sizes ~quick in
  List.map
    (fun spec ->
      let cell = run_cell ~reps ~family:Grid.default ~sizes spec in
      (match progress with
      | None -> ()
      | Some ppf ->
          Format.fprintf ppf "scaling %-10s %-10s %d sizes, top %d states: %s@."
            cell.family.Grid.family_name cell.algo_name (List.length cell.points)
            (List.fold_left (fun acc p -> max acc p.sample.Measure.size) 0 cell.points)
            (match cell.fit with
            | Fit.Fitted f ->
                Printf.sprintf "%s (exponent %.2f, R² %.3f)" (Fit.model_name f.Fit.model)
                  f.Fit.exponent f.Fit.r2
            | Fit.Inconclusive why -> "inconclusive: " ^ Fit.inconclusive_reason why));
      cell)
    (algorithms ~quick)

(* --- artifact ----------------------------------------------------------- *)

let point_json p =
  Json_min.(
    Obj
      [
        ("states", int p.sample.Measure.size); ("time_s", Num p.sample.Measure.time_s);
        ("kept", int (List.length p.sample.Measure.kept_s));
        ("runs_s", Arr (List.map (fun f -> Num f) p.sample.Measure.runs_s));
        ("constraints_s", Num p.constraints_s); ("encode_s", Num p.encode_s);
      ])

let fit_json = function
  | Fit.Fitted f ->
      Json_min.(
        Obj
          [
            ("model", Str (Fit.model_name f.Fit.model));
            ("model_order", int (Fit.model_order f.Fit.model));
            ("fitted_exponent", Num f.Fit.exponent); ("coeff", Num f.Fit.coeff);
            ("r2", Num f.Fit.r2); ("residual", Num f.Fit.residual);
          ])
  | Fit.Inconclusive why ->
      (* No model_order / fitted_exponent key: against an older artifact
         that had them, the differ reports a vanished-metric regression,
         which is exactly what a cell going inconclusive is. *)
      Json_min.(
        Obj [ ("model", Str "inconclusive"); ("reason", Str (Fit.inconclusive_reason why)) ])

let cell_json c =
  let largest = List.fold_left (fun _ p -> Some p) None c.points in
  let phases =
    match largest with
    | Some p ->
        Json_min.
          [ ( "phases",
              Obj [ ("constraints_s", Num p.constraints_s); ("encode_s", Num p.encode_s) ] ) ]
    | None -> []
  in
  Json_min.(
    Obj
      ([
         ("name", Str c.family.Grid.family_name); ("algorithm", Str c.algo_name);
         ( "states_max",
           int (List.fold_left (fun acc p -> max acc p.sample.Measure.size) 0 c.points) );
         ("fit", fit_json c.fit); ("points", Arr (List.map point_json c.points));
       ]
      @ phases))

let to_json ~quick ~reps cells =
  let f = Grid.default in
  Json_min.(
    Obj
      [
        ("schema", Str "nova-bench-scaling/v1"); ("mode", Str (if quick then "quick" else "full"));
        ("reps", int reps);
        ( "family",
          Obj
            [
              ("name", Str f.Grid.family_name); ("num_inputs", int f.Grid.num_inputs);
              ("num_outputs", int f.Grid.num_outputs);
              ("rows_per_state", int f.Grid.rows_per_state); ("seed", int f.Grid.seed);
            ] );
        ("benchmarks", Arr (List.map cell_json cells));
      ])

let summary ppf cells =
  Format.fprintf ppf "%-10s %-10s %-12s %9s %7s %6s %12s@." "family" "algorithm" "model"
    "exponent" "R²" "sizes" "top-time";
  List.iter
    (fun c ->
      let top =
        List.fold_left (fun acc p -> Float.max acc p.sample.Measure.time_s) 0. c.points
      in
      match c.fit with
      | Fit.Fitted f ->
          Format.fprintf ppf "%-10s %-10s %-12s %9.3f %7.3f %6d %11.4fs@."
            c.family.Grid.family_name c.algo_name (Fit.model_name f.Fit.model) f.Fit.exponent
            f.Fit.r2 (List.length c.points) top
      | Fit.Inconclusive why ->
          Format.fprintf ppf "%-10s %-10s %-12s (%s)@." c.family.Grid.family_name c.algo_name
            "inconclusive" (Fit.inconclusive_reason why))
    cells
