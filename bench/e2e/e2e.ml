(** The repository benchmark: one command, four workloads, each loading a
    different layer of liblang.  See README.md for the metric catalogue.

    {v
    e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
    e2e.exe --smoke
    e2e.exe compare A.jsonl B.jsonl
    e2e.exe expected DIR
    v}

    A run is a sequence of rounds, each a fresh process of this executable
    ([e2e.exe round ...]), so no round inherits another's heap, caches or
    session state; a one-shot CLI call starts fresh too.  The last line of
    standard output is the result as one JSON object. *)

module Core = Liblang_core.Core
module Json = Core.Json

let workloads = [ "kernels"; "frontend"; "build"; "daemon" ]

(* -- rounds ---------------------------------------------------------------------- *)

(* How a workload's time is spent: a fixed number of rounds that each
   measure an equal slice of it, or rounds of fixed work until it is up. *)
type plan = Slices of int | Until of int

let plan ~smoke = function
  | "kernels" -> Slices (if smoke then 1 else 4)
  | "daemon" -> Slices (if smoke then 1 else 3)
  | "build" -> Until 3
  | _ -> Until (if smoke then 1 else 2)

(* The body of one round process. *)
let round_main (args : string list) : unit =
  match args with
  | [ workload; seed; round; slice; smoke; trace; traced; dir; liblang; spawned ] ->
      let main = Util.now () in
      let ctx =
        {
          Round.workload;
          seed = int_of_string seed;
          round = int_of_string round;
          slice = float_of_string slice;
          smoke = smoke = "1";
          dir;
          liblang;
          spawned = float_of_string spawned;
        }
      in
      let trace = trace = "1" in
      Spans.on := traced = "1";
      Spans.scratch := dir;
      Spans.startup ~spawned:ctx.spawned ~main;
      let r = Round.create ctx in
      (* whatever the round does outside a layer's span is the benchmark's own *)
      Spans.span ~name:"round" "harness" (fun () ->
          match workload with
          | "kernels" -> Kernels.round ~vm:trace r
          | "frontend" -> Frontend.round r
          | "build" -> Builds.round r
          | "daemon" -> Daemon.round ~replay:trace r
          | w -> failwith ("unknown workload " ^ w));
      if r.rss_mb = 0.0 then r.rss_mb <- Util.vmhwm_mb (Unix.getpid ());
      let root_s = Util.now () -. ctx.spawned in
      let trace = if !Spans.on then Spans.to_json ~root_s else Json.Null in
      print_endline (Util.json_to_string (Round.to_json r ~trace))
  | _ -> failwith "round: bad arguments"

type round_result = Finished of Json.t | Crashed of string

(* Start round [i] and collect its report.  A round prints [spawned PID]
   for each process it starts; whatever of those outlives it is killed. *)
let spawn_round ~workload ~seed ~smoke ~trace ~liblang ~dir ~slice (i : int) : round_result =
  let rdir = Filename.concat dir (Printf.sprintf "r%d" i) in
  Util.mkdir_p rdir;
  let traced = trace && i mod 2 = 0 in
  let flag b = if b then "1" else "0" in
  let st, out =
    Util.run_capture Sys.executable_name
      [
        "round"; workload; string_of_int seed; string_of_int i; Printf.sprintf "%.17g" slice;
        flag smoke; flag trace; flag traced; rdir; liblang; Printf.sprintf "%.17g" (Util.now ());
      ]
  in
  List.iter
    (fun l ->
      match Scanf.sscanf_opt l "spawned %d" Fun.id with
      | Some pid when Util.alive pid -> Util.kill_and_await pid
      | _ -> ())
    (String.split_on_char '\n' out);
  Util.rm_rf rdir;
  match (st, Json.parse (Util.last_line out)) with
  | Unix.WEXITED 0, Ok j -> Finished j
  | Unix.WEXITED c, _ -> Crashed (Printf.sprintf "round %d exited with %d" i c)
  | _, _ -> Crashed (Printf.sprintf "round %d was killed" i)

let run_rounds ~workload ~seed ~seconds ~smoke ~trace ~liblang ~out : round_result list =
  let dir = Util.absolute (Filename.concat out (Printf.sprintf "run-%d" (Unix.getpid ()))) in
  Util.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
  let spawn = spawn_round ~workload ~seed ~smoke ~trace ~liblang ~dir in
  match plan ~smoke workload with
  | Slices k -> List.init k (fun i -> spawn ~slice:(seconds /. float_of_int k) i)
  | Until min_rounds ->
      let t_end = Util.now () +. seconds in
      let rec go i acc =
        if i >= min_rounds && Util.now () >= t_end then List.rev acc
        else go (i + 1) (spawn ~slice:0.0 i :: acc)
      in
      go 0 []

(* -- aggregation ------------------------------------------------------------------ *)

type op = { kind : string; cls : string; ms : float; traced : bool; counts : (string * float) list }

let ops_of (j : Json.t) : op list =
  let traced = Util.field "trace" j <> Json.Null in
  List.filter_map
    (function
      | Json.Arr [ Json.Str kind; Json.Str cls; Json.Num ms; Json.Obj counts ] ->
          let counts = List.map (fun (k, v) -> (k, Option.value ~default:0.0 (Json.to_num v))) counts in
          Some { kind; cls; ms; traced; counts }
      | _ -> None)
    (Util.member_arr "ops" j)

type summary = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  details : (string * float * string) list;  (** printed, not in the result object *)
}

let finite x = if Float.is_finite x then x else 0.0

(* The timed operations' samples, by kind. *)
let kinds (ops : op list) : (string * string * float list) list =
  Stats.group (List.map (fun o -> (o.kind, o)) (List.filter (fun o -> o.cls <> "setup") ops))
  |> List.map (fun (k, os) -> (k, (List.hd os).cls, List.map (fun o -> o.ms) os))

let end_to_end ~(finished : Json.t list) (ops : op list) : (string * float * string) list =
  [
    ("setup_s", Stats.median (List.map (Util.member_num "setup_s") finished), "s");
    ("latency_ms", Stats.geomean (List.map (fun (_, _, ms) -> Stats.median ms) (kinds ops)), "ms");
    ("peak_rss_mb", Stats.median (List.map (Util.member_num "rss_mb") finished), "MB");
  ]

(* Class breakdown: geomean over a class's kinds of their median, and of
   their 90th percentile. *)
let classes (ops : op list) : (string * float * string) list =
  Stats.group (List.map (fun (_, cls, ms) -> (cls, ms)) (kinds ops))
  |> List.concat_map (fun (cls, samples) ->
         [
           (cls ^ "_ms", Stats.geomean (List.map Stats.median samples), "ms");
           (cls ^ "_p90_ms", Stats.geomean (List.map (fun ms -> Stats.percentile ms 90.0) samples), "ms");
         ])

(* Sum over kinds of the per-kind median of each counter, over traced
   operations: the work one round's set of operations does. *)
let counters (ops : op list) : string -> float =
  let traced = List.filter (fun o -> o.traced) ops in
  let by_kind = Stats.group (List.map (fun o -> (o.kind, o)) traced) in
  fun name ->
    List.fold_left
      (fun acc (_, os) ->
        let value o = Option.value ~default:0.0 (List.assoc_opt name o.counts) in
        acc +. Stats.median (List.map value os))
      0.0 by_kind

(* Geomean over kinds of median(traced) / median(untraced). *)
let overhead (ops : op list) : float =
  Stats.group (List.map (fun o -> (o.kind, o)) (List.filter (fun o -> o.cls <> "setup") ops))
  |> List.filter_map (fun (_, os) ->
         let t, u = List.partition (fun o -> o.traced) os in
         if t = [] || u = [] then None
         else Some (Stats.median (List.map (fun o -> o.ms) t) /. Stats.median (List.map (fun o -> o.ms) u)))
  |> Stats.geomean

(* Geomean over kernels of the VM's median over the interpreter's, on
   untraced rounds. *)
let vm_ratio (ops : op list) : float =
  let untraced = List.filter (fun o -> not o.traced) ops in
  let med k = Stats.median (List.filter_map (fun o -> if o.kind = k then Some o.ms else None) untraced) in
  List.filter_map
    (fun (s : Inputs.source) ->
      let r = med ("vm/" ^ s.name) /. med s.name in
      if Float.is_finite r then Some r else None)
    Inputs.kernels
  |> Stats.geomean

type layers = { root_ms : float; self_ms : (string * float) list; spans : (string * float) list }

let layers_of (traces : Json.t list) : layers =
  let sum f = List.fold_left (fun a t -> a +. f t) 0.0 traces in
  let per_layer k l = sum (fun t -> Util.member_num l (Util.field k t)) in
  {
    root_ms = sum (Util.member_num "root_ms");
    self_ms = List.map (fun l -> (l, per_layer "self_ms" l)) Spans.layers;
    spans = List.map (fun l -> (l, per_layer "spans" l)) Spans.layers;
  }

let per_layer ~(finished : Json.t list) (ops : op list) (ly : layers) : (string * float * string) list =
  let count = counters ops in
  let extra k = Stats.median (List.map (fun j -> Util.member_num k (Util.field "extra" j)) finished) in
  let hits = count "expander.resolve_hits" and misses = count "expander.resolve_misses" in
  List.filter_map
    (fun (l, ms) -> if l = "harness" then None else Some (l ^ ".self_pct", 100.0 *. ms /. ly.root_ms, "%"))
    ly.self_ms
  @ List.map
      (fun (name, unit) -> (name, count name, unit))
      [
        ("reader.datums", "count");
        ("typed.forms", "count");
        ("typed.rewrites", "count");
        ("analysis.transfers", "count");
        ("analysis.cfa_rewrites", "count");
        ("runtime.apps", "count");
        ("runtime.minor_words", "words");
        ("backend.vm_instructions", "count");
        ("backend.minor_words", "words");
        ("compiled.cache_hits", "count");
        ("compiled.stat_hits", "count");
        ("compiled.compiles", "count");
        ("compiled.cache_writes", "count");
        ("build.tasks", "count");
        ("build.lock_waits", "count");
      ]
  @ [
      ("expander.resolve_hit_ratio", finite (hits /. (hits +. misses)), "ratio");
      ("backend.vm_ratio", finite (vm_ratio ops), "x");
      ("server.compiles_per_edit", extra "server.compiles_per_edit", "count");
      ("server.invalidated_per_edit", extra "server.invalidated_per_edit", "count");
      ("server.queue_pct", extra "server.queue_pct", "%");
      ("trace.overhead", overhead ops, "x");
    ]

let summarize ~workload ~trace (results : round_result list) : summary * layers option =
  let finished = List.filter_map (function Finished j -> Some j | Crashed _ -> None) results in
  let crashed = List.filter_map (function Crashed m -> Some m | Finished _ -> None) results in
  List.iter (fun m -> Printf.eprintf "e2e %s: %s\n%!" workload m) crashed;
  List.iter
    (fun j ->
      List.iter
        (fun e -> Printf.eprintf "e2e %s: %s\n%!" workload (Option.value ~default:"" (Json.to_str e)))
        (Util.member_arr "errors" j))
    finished;
  let ops = List.concat_map ops_of finished in
  let total k = List.fold_left (fun a j -> a + int_of_float (Util.member_num k j)) 0 finished in
  let attempted = List.length crashed + total "attempted" in
  let failed = List.length crashed + total "failed" in
  let gen_late =
    List.fold_left
      (fun a j -> Float.max a (Util.member_num "gen_late_ms" (Util.field "extra" j)))
      0.0 finished
  in
  let details =
    classes ops
    @ [
        ("rounds", float_of_int (List.length results), "count");
        ("operations", float_of_int (List.length ops), "count");
      ]
    @ if workload = "daemon" then [ ("gen_late_ms", gen_late, "ms") ] else []
  in
  let traces = List.filter (( <> ) Json.Null) (List.map (Util.field "trace") finished) in
  let ly = if trace then Some (layers_of traces) else None in
  let self_ok =
    match ly with
    | None -> true
    | Some ly ->
        let total = List.fold_left (fun a (_, ms) -> a +. ms) 0.0 ly.self_ms in
        let ok = ly.root_ms > 0.0 && Float.abs (total -. ly.root_ms) <= 0.01 *. ly.root_ms in
        if not ok then
          Printf.eprintf "e2e %s: layer self times sum to %.1f ms, the rounds to %.1f ms\n%!"
            workload total ly.root_ms;
        ok
  in
  let metrics =
    match ly with
    | None -> end_to_end ~finished ops
    | Some ly -> per_layer ~finished ops ly
  in
  let metrics = List.map (fun (n, v, u) -> (n, finite v, u)) metrics in
  let correct = failed = 0 && finished <> [] && ops <> [] && self_ok in
  ({ correct; attempted = max 1 attempted; failed; metrics; details }, ly)

(* -- output ----------------------------------------------------------------------- *)

let result_json (s : summary) : Json.t =
  Json.Obj
    [
      ("correct", Json.Bool s.correct);
      ("attempted", Util.int s.attempted);
      ("failed", Util.int s.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) -> (n, Json.Obj [ ("value", Util.num v); ("unit", Json.Str u) ]))
             s.metrics) );
    ]

let print_layers (ly : layers) =
  Printf.printf "%-10s %12s %8s %7s\n" "layer" "self_ms" "spans" "share";
  List.iter
    (fun (l, ms) ->
      Printf.printf "%-10s %12.3f %8.0f %6.2f%%\n" l ms (List.assoc l ly.spans) (100.0 *. ms /. ly.root_ms))
    ly.self_ms;
  Printf.printf "%-10s %12.3f\n" "root" ly.root_ms

(* The traced rounds' spans as a Chrome trace (chrome://tracing, Perfetto). *)
let write_chrome_trace (path : string) (results : round_result list) =
  let events =
    List.concat
      (List.mapi
         (fun i -> function
           | Finished j ->
               List.filter_map
                 (function
                   | Json.Arr [ Json.Str name; Json.Str layer; Json.Num start; Json.Num dur ] ->
                       Some
                         (Json.Obj
                            [
                              ("name", Json.Str name); ("cat", Json.Str layer); ("ph", Json.Str "X");
                              ("ts", Util.num (1e6 *. start)); ("dur", Util.num (1e6 *. dur));
                              ("pid", Util.int i); ("tid", Util.int 0);
                            ])
                   | _ -> None)
                 (Util.member_arr "events" (Util.field "trace" j))
           | Crashed _ -> [])
         results)
  in
  Util.write_file path (Util.json_to_string (Json.Obj [ ("traceEvents", Json.Arr events) ]))

let run ~workload ~seed ~seconds ~trace ~smoke ~liblang ~out ~record : summary =
  let results = run_rounds ~workload ~seed ~seconds ~smoke ~trace ~liblang ~out in
  let s, ly = summarize ~workload ~trace results in
  if smoke then
    Printf.printf "e2e --smoke %s: %d operations, %s\n" workload s.attempted
      (if s.correct then "all correct" else "WRONG")
  else begin
    List.iter (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" workload n v u) (s.metrics @ s.details);
    match List.find_opt (fun (n, _, _) -> n = "gen_late_ms") s.details with
    | Some (_, late, _) when late > 5.0 ->
        Printf.eprintf "e2e daemon: the generator ran %.1f ms late; latencies are suspect\n%!" late
    | _ -> ()
  end;
  Option.iter
    (fun ly ->
      print_layers ly;
      let path = Filename.concat out (Printf.sprintf "trace-%s.json" workload) in
      write_chrome_trace path results;
      Printf.printf "chrome trace: %s\n" path)
    ly;
  Option.iter
    (fun file ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 file (fun oc ->
          output_string oc
            (Util.json_to_string
               (Json.Obj
                  [
                    ("workload", Json.Str workload); ("seed", Util.int seed); ("trace", Json.Bool trace);
                    ("result", result_json s);
                  ]));
          output_char oc '\n'))
    record;
  s

(* -- command line ----------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: e2e.exe --workload kernels|frontend|build|daemon [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--record FILE] [--out DIR] [--liblang PATH]\n\
    \       e2e.exe --smoke [--liblang PATH]\n\
    \       e2e.exe compare A.jsonl B.jsonl\n\
    \       e2e.exe expected DIR";
  exit 64

let check_sources () =
  match Inputs.drifted () with
  | [] -> ()
  | names ->
      Printf.eprintf
        "e2e: these inputs no longer match expected/sources.md5: %s\n\
         (bench/programs.ml changed; the benchmark's inputs are pinned)\n"
        (String.concat ", " names);
      exit 3

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "round" :: args -> round_main args
  | [ "compare"; a; b ] -> Compare.main a b
  | [ "expected"; dir ] -> Inputs.write_expected dir
  | args ->
      let workload = ref None and seed = ref 1 and seconds = ref 25.0 and trace = ref false
      and smoke = ref false and record = ref None and out = ref "bench/e2e/_out"
      and liblang =
        ref (Filename.concat (Filename.dirname Sys.executable_name) "../../bin/liblang.exe")
      in
      let rec go = function
        | [] -> ()
        | "--workload" :: w :: rest when List.mem w workloads -> workload := Some w; go rest
        | "--seed" :: n :: rest -> seed := int_of_string n; go rest
        | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
        | "--trace" :: (("0" | "1") as t) :: rest -> trace := t = "1"; go rest
        | "--record" :: f :: rest -> record := Some f; go rest
        | "--out" :: d :: rest -> out := d; go rest
        | "--liblang" :: p :: rest -> liblang := p; go rest
        | "--smoke" :: rest -> smoke := true; go rest
        | _ -> usage ()
      in
      (try go args with Failure _ -> usage ());
      check_sources ();
      let liblang = Util.absolute !liblang in
      if not (Sys.file_exists liblang) then begin
        Printf.eprintf "e2e: no liblang executable at %s\n" liblang;
        exit 2
      end;
      Util.mkdir_p !out;
      let run w ~smoke ~seconds =
        run ~workload:w ~seed:!seed ~seconds ~trace:!trace ~smoke ~liblang ~out:!out ~record:!record
      in
      if !smoke then begin
        let bad =
          List.filter
            (fun w ->
              let s = run w ~smoke:true ~seconds:(if w = "daemon" then 1.0 else 0.0) in
              not s.correct)
            workloads
        in
        if bad <> [] then begin
          Printf.eprintf "e2e --smoke: wrong output on %s\n" (String.concat ", " bad);
          exit 1
        end
      end
      else
        match !workload with
        | None -> usage ()
        | Some w ->
            let s = run w ~smoke:false ~seconds:!seconds in
            print_endline (Util.json_to_string (result_json s))
