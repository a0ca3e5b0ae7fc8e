(** Tests for the observability subsystem (lib/observe/): exact metric
    counters on known programs, the span tree (self times, nesting, agreement
    with the trace, merging across build workers), JSON round-trips, trace
    output shape, and the zero-cost-when-off guarantee on the hot paths. *)

open Test_util
module Pipeline = Liblang_core.Pipeline
module Observe = Liblang_observe.Observe
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace
module Json = Liblang_observe.Json

(** Run [src] as a #lang program under a fresh metrics collector; return
    the collector.  Fails the test if the program itself fails. *)
let metrics_of ?name src : Metrics.t =
  let name = match name with Some n -> n | None -> fresh "observe" in
  counted "the program" (fun observe -> Pipeline.run ~name ~observe src)

(* total JSON accessors (Json.member/to_num/to_str are optional) *)
let mem key j =
  match Json.member key j with Some v -> v | None -> Alcotest.failf "missing JSON key %S" key

let num j = match Json.to_num j with Some f -> f | None -> Alcotest.fail "expected JSON number"
let str j = match Json.to_str j with Some s -> s | None -> Alcotest.fail "expected JSON string"

(* -- exact counters on known programs ---------------------------------------- *)

(* A macro used exactly 3 times expands exactly 3 times (plus whatever
   recursive uses the expansion itself introduces: none here). *)
let macro_counts_exact () =
  let c =
    metrics_of
      "#lang racket\n\
       (define-syntax-rule (twice e) (begin e e))\n\
       (twice (void))\n\
       (twice (void))\n\
       (twice (void))\n"
  in
  check_i "expand.macro.twice" 3 (Metrics.get c "expand.macro.twice")

(* A recursive macro: (rep n e) unfolds n+1 times (n recursive steps plus
   the base case). *)
let recursive_macro_counts () =
  let c =
    metrics_of
      "#lang racket\n\
       (define-syntax rep\n\
      \  (syntax-rules ()\n\
      \    [(_ 0 e) (void)]\n\
      \    [(_ n e) (begin e (rep 0 e))]))\n\
       (rep 5 (void))\n"
  in
  (* (rep 5 e) -> (begin e (rep 0 e)) -> (void): 2 applications *)
  check_i "expand.macro.rep" 2 (Metrics.get c "expand.macro.rep")

(* Optimizer rewrites are mirrored one-for-one into optimize.<rule>
   counters: one flonum addition in a typed module fires fl:+ exactly
   once. *)
let optimizer_counts_exact () =
  let c =
    metrics_of
      "#lang typed/racket\n\
       (define (f [x : Float]) : Float (+ x 1.0))\n\
       (display (f 1.0))\n"
  in
  check_i "optimize.fl:+" 1 (Metrics.get c "optimize.fl:+")

let typed_src = "#lang typed/racket\n(define (f [x : Float]) : Float (+ x 1.0))\n(display (f 1.0))\n"

(* The phase-timer view of the span tree has time for every pipeline phase
   the program exercises. *)
let phase_timers_present () =
  let c = metrics_of typed_src in
  List.iter
    (fun phase ->
      if Metrics.get_ms c phase <= 0.0 then Alcotest.failf "no time recorded under %s" phase)
    [ "read"; "expand"; "typecheck"; "analyze"; "optimize"; "compile"; "instantiate" ]

(* Module-system counters: one compile, one instantiation; re-declaring
   the same module name counts a re-expansion. *)
let module_counters () =
  let name = fresh "observe-mod" in
  let src = "#lang racket\n(display 1)\n" in
  let c1 = metrics_of ~name src in
  check_i "module.compiles" 1 (Metrics.get c1 "module.compiles");
  check_i "module.instantiations" 1 (Metrics.get c1 "module.instantiations");
  check_i "module.reexpansions" 0 (Metrics.get c1 "module.reexpansions");
  (* same name again: a cache-less re-expansion *)
  let c2 = metrics_of ~name src in
  check_i "module.reexpansions" 1 (Metrics.get c2 "module.reexpansions")

(* The interpreter's hot-path counter records runtime applications. *)
let interp_apps_counted () =
  let c = metrics_of "#lang racket\n(define (f x) (if (= x 0) 0 (f (- x 1))))\n(display (f 100))\n" in
  let apps = c.Metrics.interp_apps in
  if apps < 100 then Alcotest.failf "expected >= 100 interp apps, got %d" apps

(* -- JSON -------------------------------------------------------------------- *)

(* Metrics.to_json round-trips through the parser with counters intact —
   the same path `liblang run --profile=json` output takes. *)
let profile_json_roundtrip () =
  let c =
    metrics_of
      "#lang racket\n(define-syntax-rule (twice e) (begin e e))\n(twice (void))\n(twice (void))\n"
  in
  let text = Json.to_string ~pretty:true (Metrics.to_json c) in
  match Json.parse text with
  | Error m -> Alcotest.failf "profile JSON does not parse: %s" m
  | Ok j ->
      let n = num (mem "expand.macro.twice" (mem "counters" j)) in
      check_i "round-tripped counter" 2 (int_of_float n)

let json_parser_basics () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("-2.5", Json.Num (-2.5));
      ({|"a\nb"|}, Json.Str "a\nb");
      ("[1,2]", Json.Arr [ Json.Num 1.0; Json.Num 2.0 ]);
      ({|{"k":"v"}|}, Json.Obj [ ("k", Json.Str "v") ]);
    ]
  in
  List.iter
    (fun (text, expect) ->
      match Json.parse text with
      | Ok j when j = expect -> ()
      | Ok j -> Alcotest.failf "%s parsed to %s" text (Json.to_string j)
      | Error m -> Alcotest.failf "%s: %s" text m)
    cases;
  (match Json.parse "{broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON accepted")

(* -- tracing ----------------------------------------------------------------- *)

(* An NDJSON trace of a run is one JSON object per line, with balanced
   enter/exit events and macro events at -vv. *)
let ndjson_trace_shape () =
  let path = Filename.temp_file "liblang-trace" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      let sink = Trace.make_sink ~format:Trace.Ndjson ~verbosity:2 oc in
      (match
         Pipeline.run ~name:(fresh "observe-trace")
           ~observe:{ Observe.metrics = None; trace = Some sink }
           "#lang racket\n(define-syntax-rule (twice e) (begin e e))\n(twice (void))\n"
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "traced program failed");
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let events =
        List.rev_map
          (fun line ->
            match Json.parse line with
            | Ok j -> j
            | Error m -> Alcotest.failf "trace line is not JSON: %s (%s)" line m)
          !lines
      in
      let ev_of j = str (mem "ev" j) in
      let count p = List.length (List.filter p events) in
      let enters = count (fun j -> ev_of j = "enter")
      and exits = count (fun j -> ev_of j = "exit")
      and macros =
        count (fun j -> ev_of j = "enter" && String.starts_with ~prefix:"expand.macro." (str (mem "span" j)))
      in
      check_i "enter/exit balanced" enters exits;
      if enters = 0 then Alcotest.fail "no spans traced";
      if macros < 1 then Alcotest.fail "no -vv macro spans traced";
      (* the macro span names the macro, and its enter/exit carry the
         syntax before and after the step *)
      let step ev field =
        List.exists
          (fun j ->
            ev_of j = ev && str (mem "span" j) = "expand.macro.twice" && Json.member field j <> None)
          events
      in
      check_b "macro span enter carries 'before'" true (step "enter" "before");
      check_b "macro span exit carries 'after'" true (step "exit" "after"))

(* -- the span tree --------------------------------------------------------------- *)

(* Every node of [c]'s tree with its name path, outermost name first. *)
let nodes (c : Metrics.t) : (string list * Metrics.span) list =
  let rec walk prefix (s : Metrics.span) =
    let path = prefix @ [ s.Metrics.name ] in
    (path, s) :: List.concat_map (walk path) (Metrics.kids s)
  in
  List.concat_map (walk []) (Metrics.spans c)

(* [c]'s tree has the single root [root], and the self times of all its
   nodes sum to the root's total within 1%. *)
let check_self_sum ~root (c : Metrics.t) =
  match Metrics.spans c with
  | [ r ] when r.Metrics.name = root ->
      let self = List.fold_left (fun acc (_, s) -> acc +. Metrics.self_s s) 0.0 (nodes c) in
      let total = r.Metrics.total_s in
      if total <= 0.0 || Float.abs (self -. total) > 0.01 *. total then
        Alcotest.failf "%s: self times sum to %.6f s, root total %.6f s" root self total
  | spans ->
      Alcotest.failf "expected the one root %s, got [%s]" root
        (String.concat "; " (List.map (fun (s : Metrics.span) -> s.Metrics.name) spans))

let temp_dir () = fresh_dir "observe"

(* A cached build of a small generated diamond, [jobs] workers, into a
   fresh store; returns the collector. *)
let build_metrics ~jobs : Metrics.t =
  let module Compiled = Liblang_core.Core.Compiled in
  let dir = temp_dir () in
  let root, _ =
    Compiled.Genproj.generate ~dir ~shape:Compiled.Genproj.Diamond ~n:6 ~depth:4 ~nvars:4 ~copies:1 ()
  in
  Compiled.reset_session ();
  counted (Printf.sprintf "-j %d build" jobs) (fun observe ->
      Pipeline.build_files ~cache_dir:(Filename.concat dir "cache") ~jobs ~observe [ root ])

let self_times_sum_to_root () =
  check_self_sum ~root:"run" (metrics_of typed_src);
  check_self_sum ~root:"build" (build_metrics ~jobs:1)

(* The paper's point, visible in the profile: a typed module's checking and
   optimization run inside its expansion. *)
let typecheck_nests_in_expand () =
  let ns = nodes (metrics_of typed_src) in
  List.iter
    (fun phase ->
      let under = List.filter (fun (path, _) -> List.nth path (List.length path - 1) = phase) ns in
      if under = [] then Alcotest.failf "no %s span" phase;
      List.iter
        (fun (path, _) ->
          if not (List.mem "expand" path) then
            Alcotest.failf "%s outside expand: %s" phase (String.concat "/" path))
        under)
    [ "typecheck"; "optimize" ]

(* Read [path]'s NDJSON trace back as (name path, summed exit ms) per span
   path. *)
let trace_totals path : (string list * float) list =
  let ic = open_in path in
  let totals = Hashtbl.create 16 and stack = ref [] in
  (try
     while true do
       let j = match Json.parse (input_line ic) with Ok j -> j | Error m -> Alcotest.fail m in
       match str (mem "ev" j) with
       | "enter" -> stack := str (mem "span" j) :: !stack
       | "exit" ->
           let key = List.rev !stack in
           stack := List.tl !stack;
           Hashtbl.replace totals key
             (num (mem "ms" j) +. Option.value ~default:0.0 (Hashtbl.find_opt totals key))
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []

(* One clock reading feeds both halves of a span: every span path's tree
   total equals the sum of its NDJSON exit [ms] in the same run. *)
let tree_matches_trace () =
  let path = Filename.temp_file "liblang-trace" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      let c = Metrics.create () in
      let sink = Trace.make_sink ~format:Trace.Ndjson ~verbosity:2 oc in
      (match
         Pipeline.run ~name:(fresh "observe-tree")
           ~observe:{ Observe.metrics = Some c; trace = Some sink }
           typed_src
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "traced program failed");
      close_out oc;
      let traced = trace_totals path and tree = nodes c in
      check_i "span paths in trace and tree" (List.length tree) (List.length traced);
      List.iter
        (fun (key, ms) ->
          match List.assoc_opt key tree with
          | None -> Alcotest.failf "traced span %s missing from the tree" (String.concat "/" key)
          | Some s ->
              let tree_ms = 1000.0 *. s.Metrics.total_s in
              if Float.abs (tree_ms -. ms) > 1e-4 *. ms +. 1e-6 then
                Alcotest.failf "%s: tree %.6f ms, trace %.6f ms" (String.concat "/" key) tree_ms ms)
        traced)

(* Per-task collectors graft under build-compile however many workers ran
   the tasks: -j 2 and -j 1 record the same calls at every span path.
   Loads are left out: a worker loads the requires another domain
   compiled (an [artifact-read] and a [load-module]), so how many it does
   depends on the schedule. *)
let parallel_build_same_calls () =
  let calls c =
    List.filter_map
      (fun ((path, s) : string list * Metrics.span) ->
        if List.mem "artifact-read" path || List.mem "load-module" path then None
        else Some (String.concat "/" path, s.Metrics.calls))
      (nodes c)
    |> List.sort compare
  in
  let c1 = calls (build_metrics ~jobs:1) and c2 = calls (build_metrics ~jobs:2) in
  if List.length c1 < 10 then Alcotest.fail "-j 1 build recorded almost no spans";
  List.iter
    (fun (path, n) ->
      check_i (path ^ " calls, -j 2 vs -j 1") n (Option.value ~default:0 (List.assoc_opt path c2)))
    c1;
  check_i "span paths, -j 2 vs -j 1" (List.length c1) (List.length c2)

(* -- zero-cost-when-off ------------------------------------------------------- *)

let spanned () = ()

(* With no collector and no sink installed, the hot-path hooks must not
   allocate: the whole point of the ambient-slot design is that
   instrumentation left in shipping code costs a compare-and-branch, not
   garbage.  That covers the interpreter's application hook and the span
   every phase (and every macro application) runs under. *)
let off_means_no_allocation () =
  let words_per_100k label hook =
    (* warm up (first call may trigger lazy init elsewhere) *)
    for _ = 1 to 100 do
      hook ()
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to 100_000 do
      hook ()
    done;
    let dw = Gc.minor_words () -. w0 in
    (* tolerance: the two Gc.minor_words calls themselves box a float *)
    if dw > 64.0 then Alcotest.failf "%s with nothing installed allocated %.0f words per 100k calls" label dw
  in
  words_per_100k "bump_apps" Metrics.bump_apps;
  words_per_100k "Trace.span" (fun () -> Trace.span "off" spanned)

(* ...and a full program run with observation off leaves the ambient slots
   empty (nothing installed globally as a side effect). *)
let off_leaves_no_residue () =
  ignore (run "#lang racket\n(display 1)\n");
  check_b "no ambient collector" false (Metrics.installed ());
  check_b "no ambient trace sink" false (Trace.installed ())

(* -- suite -------------------------------------------------------------------- *)

let suite =
  cleaning
  [
    Alcotest.test_case "macro counters are exact" `Quick macro_counts_exact;
    Alcotest.test_case "recursive macro counters" `Quick recursive_macro_counts;
    Alcotest.test_case "optimizer rewrite counters are exact" `Quick optimizer_counts_exact;
    Alcotest.test_case "all phase timers recorded" `Quick phase_timers_present;
    Alcotest.test_case "module compile/instantiate/re-expand counters" `Quick module_counters;
    Alcotest.test_case "interpreter applications counted" `Quick interp_apps_counted;
    Alcotest.test_case "profile JSON round-trips" `Quick profile_json_roundtrip;
    Alcotest.test_case "JSON parser basics" `Quick json_parser_basics;
    Alcotest.test_case "NDJSON trace is well-formed" `Quick ndjson_trace_shape;
    Alcotest.test_case "hooks allocate nothing when off" `Quick off_means_no_allocation;
    Alcotest.test_case "span self times sum to the root" `Quick self_times_sum_to_root;
    Alcotest.test_case "typecheck and optimize nest in expand" `Quick typecheck_nests_in_expand;
    Alcotest.test_case "span tree totals equal trace exits" `Quick tree_matches_trace;
    Alcotest.test_case "-j 2 and -j 1 builds record the same spans" `Quick parallel_build_same_calls;
    Alcotest.test_case "observation leaves no ambient residue" `Quick off_leaves_no_residue;
  ]
