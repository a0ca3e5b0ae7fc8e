(** Benchmark harness: reproduces the shape of the paper's figures 6–9.

    Each benchmark program is compiled once per (variant) and then its module
    body is re-instantiated repeatedly under a monotonic wall clock, after a
    warmup run — the moral equivalent of the paper's 20-run averages.
    Checksums (the program's printed output) are compared across every
    variant so a mis-optimization cannot masquerade as a speedup. *)

module Core = Liblang_core.Core
module Modsys = Core.Modsys
module Interp = Core.Interp
module Naive = Core.Naive
module Optimize = Core.Optimize
module Zcfa = Core.Zcfa
module Prims = Core.Prims
module Value = Core.Value
module Json = Core.Json

type variant =
  | Naive_backend  (** AST-walking evaluator: the "other compiler" series *)
  | Base  (** untyped, closure-compiling evaluator *)
  | Typed  (** typed, optimizer + unboxing backend *)
  | Typed_O0  (** typed, optimizer disabled (ablation) *)
  | Typed_no_unbox  (** typed, rewrites on, backend unboxing off (ablation) *)
  | Typed_no_cfa  (** typed, optimizer on but 0CFA facts off (flow-analysis ablation) *)

let variant_name = function
  | Naive_backend -> "naive"
  | Base -> "untyped"
  | Typed -> "typed"
  | Typed_O0 -> "typed-O0"
  | Typed_no_unbox -> "typed-noubx"
  | Typed_no_cfa -> "typed-nocfa"

let is_typed = function
  | Typed | Typed_O0 | Typed_no_unbox | Typed_no_cfa -> true
  | _ -> false

type result = {
  mean_ms : float;
  checksum : string;
  runs : int;
  rewrites : (string * int) list;
      (** optimizer rewrite-rule firings recorded while compiling this
          variant (empty for untyped variants) — lets BENCH_fig6.json tie
          each speedup to the rules that produced it *)
  cached : (float * float) option;
      (** [(compile_cold_ms, compile_warm_ms)] when the [--cached] series
          is on: the same source compiled twice through the artifact
          store (fresh temp cache dir), with the resolver's session state
          reset in between — so the warm number is the §5 replay path
          (load from artifact, no expansion or typechecking) and the cold
          number is compile-from-source plus the artifact write *)
  expand_ms : float;
      (** expansion-only front-end time for this variant's source: median
          of repeated [Modsys.expand_source] calls (read + expand, no
          typecheck/compile/instantiate for untyped variants; typed
          variants include whatever their language runs during module
          expansion).  This is the number the hygiene-at-speed series
          tracks. *)
  gc_minor_words : float;
      (** GC pressure of the median instantiation run: words allocated in
          the minor heap ([Gc.quick_stat] delta around the run).  Tracks
          allocation-rate regressions that wall-clock medians can hide
          (an optimization that trades time for allocation shows up here
          first). *)
  gc_major_words : float;  (** same, words promoted to / allocated in the major heap *)
  analysis_ms : float;
      (** time spent in the 0CFA pass (the [analyze] span) while compiling
          this variant — 0.0 for untyped variants and for
          [Typed_no_cfa], whose whole point is to skip the pass *)
  vm : vm_result option;
      (** the bytecode-VM series ([--engine vm]): the same module body
          re-instantiated under {!Liblang_backend.Vm} instead of the
          closure-compiling interpreter.  [None] for the naive backend
          row (the AST walker stands in for other systems; it has no VM
          analogue).  The checksum is compared against the interpreter's
          — a divergent VM fails the run like any other mismatch — and
          [vm_gc_minor_words] feeds the allocation gate: inlined-loop
          float kernels must run allocation-free under the VM. *)
}

and vm_result = {
  vm_ms : float;  (** median instantiate wall-clock under the VM *)
  vm_checksum : string;
  vm_gc_minor_words : float;
  vm_gc_major_words : float;
}

let now () = Unix.gettimeofday ()

(* -- --filter ----------------------------------------------------------------- *)

(** When set (the driver's [--filter REGEX]), only benchmarks whose name
    matches the (unanchored) regex are measured — across the figure rows,
    the expansion stress family and the parallel-build family alike.  CI
    smoke uses this to run a representative subset instead of the full
    figure.  A top-level [|] is alternation ([Str] would want [\|]; we
    split on it so the conventional spelling works): [--filter
    'sumfp|par-'] keeps [sumfp] and the parallel projects. *)
let filter_res : Str.regexp list option ref = ref None

let set_filter (s : string) =
  filter_res := Some (List.map Str.regexp (String.split_on_char '|' s))

let matches_filter (name : string) : bool =
  match !filter_res with
  | None -> true
  | Some res ->
      List.exists
        (fun re -> try ignore (Str.search_forward re name 0); true with Not_found -> false)
        res

(* -- the --cached compile series ---------------------------------------------- *)

(** Set by the driver's [--cached] flag: additionally compile each
    variant twice through the artifact store and record cold/warm
    compile times in the figure JSON. *)
let cached_series = ref false

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let cached_tmp_counter = ref 0

(** Compile one variant of [b] twice through a fresh artifact store and
    return [(cold_ms, warm_ms)].  The source is written to a temp [.scm]
    file so it takes the file-resolver path ([Compiled.compile_file]);
    [Compiled.reset_session] between the two runs simulates a fresh
    process, so the warm run actually reads the artifact back. *)
let measure_cached (b : Programs.t) (v : variant) : float * float =
  let lang, body =
    if is_typed v then ("typed/racket", b.Programs.typed) else ("racket", b.Programs.untyped)
  in
  let source = "#lang " ^ lang ^ "\n" ^ body in
  incr cached_tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "liblang-bench-%d-%d" (Unix.getpid ()) !cached_tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  let src_path = Filename.concat dir "prog.scm" in
  let oc = open_out_bin src_path in
  output_string oc source;
  close_out oc;
  let cache = Filename.concat dir "cache" in
  let saved = !Optimize.enabled in
  let saved_cfa = !Zcfa.enabled in
  Optimize.enabled := v <> Typed_O0;
  Zcfa.enabled := v <> Typed_no_cfa;
  Fun.protect ~finally:(fun () ->
      Optimize.enabled := saved;
      Zcfa.enabled := saved_cfa;
      rm_rf dir)
  @@ fun () ->
  let compile_once () =
    Core.Compiled.reset_session ();
    let t0 = now () in
    Core.Compiled.with_cache_dir cache (fun () -> ignore (Core.Compiled.compile_file src_path));
    now () -. t0
  in
  let cold = compile_once () in
  let warm = compile_once () in
  Core.Compiled.reset_session ();
  (1000.0 *. cold, 1000.0 *. warm)

(** Compile one variant of a benchmark; returns the module, the
    optimizer's per-rule rewrite counts for that compilation, and the
    time spent in the 0CFA pass (the outermost [analyze] spans, ms). *)
let declare_variant_counted (b : Programs.t) (v : variant) :
    Modsys.t * (string * int) list * float =
  let lang, body = if is_typed v then ("typed/racket", b.Programs.typed) else ("racket", b.Programs.untyped) in
  let source = "#lang " ^ lang ^ "\n" ^ body in
  let name = Printf.sprintf "%s/%s" b.Programs.name (variant_name v) in
  let saved = !Optimize.enabled in
  let saved_cfa = !Zcfa.enabled in
  Optimize.enabled := (v <> Typed_O0);
  Zcfa.enabled := (v <> Typed_no_cfa);
  Optimize.reset_stats ();
  let metrics = Core.Metrics.create () in
  let m =
    Fun.protect
      ~finally:(fun () ->
        Optimize.enabled := saved;
        Zcfa.enabled := saved_cfa)
      (fun () -> Core.Metrics.with_collector metrics (fun () -> Modsys.declare ~name source))
  in
  (m, Optimize.stats_alist (), Core.Metrics.get_ms metrics "analyze")

let declare_variant b v : Modsys.t =
  let m, _, _ = declare_variant_counted b v in
  m

(* Run the module body once, under the variant's evaluation regime, and
   return (checksum, elapsed seconds).  [~vm:true] swaps in the bytecode
   backend (the CLI's [--engine vm]) for the same variant: lowering
   still honours the variant's unboxing toggle, so e.g. typed-noubx/vm
   measures the VM without its float lane. *)
let run_once ?(vm = false) (m : Modsys.t) (v : variant) : string * float =
  let saved_eval = !Modsys.evaluator in
  let saved_unbox = !Interp.unboxing_enabled in
  let saved_engine = !Core.Vm.Engine.current in
  (if vm then begin
     Modsys.evaluator := Core.Vm.eval_top;
     Core.Vm.Engine.current := Core.Vm.Engine.Vm
   end
   else
     match v with
     | Naive_backend -> Modsys.evaluator := Naive.eval_top
     | _ -> Modsys.evaluator := Interp.eval_top);
  (match v with
  | Typed_no_unbox -> Interp.unboxing_enabled := false
  | _ -> Interp.unboxing_enabled := true);
  Fun.protect
    ~finally:(fun () ->
      Modsys.evaluator := saved_eval;
      Interp.unboxing_enabled := saved_unbox;
      Core.Vm.Engine.current := saved_engine)
    (fun () ->
      m.Modsys.instantiated <- false;
      let out, dt =
        Prims.with_captured_output (fun () ->
            let t0 = now () in
            Modsys.instantiate m;
            now () -. t0)
      in
      (out, dt))

(* -- the expansion-only series -------------------------------------------- *)

let expand_name_counter = ref 0

(** Median expansion-only time for [source] (a full [#lang] program) in
    milliseconds: [Modsys.expand_source] under a monotonic clock, after
    one warmup, with a fresh module name per call so no session state is
    reused.  The binding table is snapshotted before and restored after:
    the throwaway expansions would otherwise keep growing the per-name
    binder lists that every *later* measurement's resolutions scan,
    slowly poisoning the rest of the figure (most visibly the
    [compile_cold_ms] series). *)
let measure_expand_ms ?(rounds = 3) ~name (source : string) : float =
  let snap = Core.Binding.snapshot () in
  Fun.protect
    ~finally:(fun () -> Core.Binding.restore snap)
    (fun () ->
      let once () =
        incr expand_name_counter;
        let n = Printf.sprintf "%s-expand-%d" name !expand_name_counter in
        let t0 = now () in
        ignore (Core.Modsys.expand_source ~name:n source);
        now () -. t0
      in
      ignore (once ());
      let samples = List.sort compare (List.init rounds (fun _ -> once ())) in
      1000.0 *. List.nth samples (rounds / 2))

let variant_source (b : Programs.t) (v : variant) : string =
  let lang, body =
    if is_typed v then ("typed/racket", b.Programs.typed) else ("racket", b.Programs.untyped)
  in
  "#lang " ^ lang ^ "\n" ^ body

(** Measure one benchmark under several variants at once: warmup each,
    then alternate single runs round-robin (so machine noise affects all
    variants alike) and report the median — the moral equivalent of the
    paper's 20-run averages. *)
let measure_variants ?(rounds = 9) (b : Programs.t) (variants : variant list)
    : (variant * result) list =
  (* the cached compile series runs first: Compiled.reset_session clears
     the module registry, so it must finish before the variants below are
     declared for the runtime measurements *)
  let cached_results =
    List.map
      (fun v -> (v, if !cached_series then Some (measure_cached b v) else None))
      variants
  in
  let expand_rounds = min 3 (max 1 rounds) in
  let expands =
    List.map
      (fun v ->
        (v, measure_expand_ms ~rounds:expand_rounds ~name:b.Programs.name (variant_source b v)))
      variants
  in
  let ms = List.map (fun v -> (v, declare_variant_counted b v)) variants in
  let firsts = List.map (fun (v, (m, _, _)) -> (v, run_once m v)) ms in
  (* the naive backend has no lowering pipeline, so it is the one variant
     without a bytecode series *)
  let has_vm v = v <> Naive_backend in
  let vm_firsts =
    List.filter_map
      (fun (v, (m, _, _)) -> if has_vm v then Some (v, run_once ~vm:true m v) else None)
      ms
  in
  let samples = List.map (fun v -> (v, ref [])) variants in
  let gc_samples = List.map (fun v -> (v, ref [])) variants in
  let vm_samples = List.map (fun v -> (v, ref [])) variants in
  let vm_gc_samples = List.map (fun v -> (v, ref [])) variants in
  for _ = 1 to rounds do
    List.iter
      (fun (v, (m, _, _)) ->
        Gc.minor ();
        (* allocation deltas around the run: the GC-pressure series *)
        let s0 = Gc.quick_stat () in
        let _, dt = run_once m v in
        let s1 = Gc.quick_stat () in
        let l = List.assoc v samples in
        l := dt :: !l;
        let g = List.assoc v gc_samples in
        g :=
          ( s1.Gc.minor_words -. s0.Gc.minor_words,
            s1.Gc.major_words -. s0.Gc.major_words )
          :: !g;
        if has_vm v then begin
          Gc.minor ();
          let s0 = Gc.quick_stat () in
          let _, dt = run_once ~vm:true m v in
          let s1 = Gc.quick_stat () in
          let l = List.assoc v vm_samples in
          l := dt :: !l;
          let g = List.assoc v vm_gc_samples in
          g :=
            ( s1.Gc.minor_words -. s0.Gc.minor_words,
              s1.Gc.major_words -. s0.Gc.major_words )
            :: !g
        end)
      ms
  done;
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  List.map
    (fun v ->
      let checksum, _ = List.assoc v firsts in
      let l = !(List.assoc v samples) in
      let gl = !(List.assoc v gc_samples) in
      let _, rewrites, analysis_ms = List.assoc v ms in
      let cached = List.assoc v cached_results in
      let expand_ms = List.assoc v expands in
      let vm =
        match List.assoc_opt v vm_firsts with
        | None -> None
        | Some (vm_checksum, _) ->
            let vl = !(List.assoc v vm_samples) in
            let vgl = !(List.assoc v vm_gc_samples) in
            Some
              {
                vm_ms = 1000.0 *. median vl;
                vm_checksum;
                vm_gc_minor_words = median (List.map fst vgl);
                vm_gc_major_words = median (List.map snd vgl);
              }
      in
      {
        mean_ms = 1000.0 *. median l;
        checksum;
        runs = rounds;
        rewrites;
        cached;
        expand_ms;
        gc_minor_words = median (List.map fst gl);
        gc_major_words = median (List.map snd gl);
        analysis_ms;
        vm;
      }
      |> fun r -> (v, r))
    variants

let measure ?(budget = 0.5) (b : Programs.t) (v : variant) : result =
  ignore budget;
  List.assoc v (measure_variants b [ v ])

(* -- reporting --------------------------------------------------------------- *)

let line = String.make 78 '-'

(** Checksum mismatches observed across every figure run so far; the
    driver exits nonzero when this is nonempty (CI treats a divergent
    variant as a correctness failure, not a perf artifact). *)
let checksum_mismatches : (string * variant) list ref = ref []

let check_agreement name (results : (variant * result) list) =
  match results with
  | [] -> ()
  | (_, r0) :: rest ->
      List.iter
        (fun (v, r) ->
          if not (String.equal r.checksum r0.checksum) then begin
            checksum_mismatches := (name, v) :: !checksum_mismatches;
            Printf.printf "!! %s: checksum mismatch under %s: %s vs %s\n" name (variant_name v)
              r.checksum r0.checksum
          end)
        rest;
      (* the differential contract: under every variant, the bytecode VM
         must produce the same output as the tree-walking interpreter *)
      List.iter
        (fun (v, r) ->
          match r.vm with
          | Some vm when not (String.equal vm.vm_checksum r.checksum) ->
              checksum_mismatches := (name, v) :: !checksum_mismatches;
              Printf.printf "!! %s: vm/interp checksum mismatch under %s: %s vs %s\n" name
                (variant_name v) vm.vm_checksum r.checksum
          | _ -> ())
        results

(** One measured benchmark: the program and its per-variant results. *)
type row = { program : Programs.t; results : (variant * result) list }

(** Allocation-gate failures: float kernels whose typed/vm series
    allocated past its budget (a mis-lowering — the unboxed register
    lanes should carry the whole inner loop); the driver exits nonzero
    when this is nonempty, like {!checksum_mismatches}. *)
let alloc_gate_failures : (string * float) list ref = ref []

(* Per-run minor-word budgets for the inlined-loop float kernels under
   the bytecode VM.  sumfp and mbrot run their inner loops entirely on
   the float registers: measured typed/vm gc_minor_words is exactly 0,
   vs ~12.6M (sumfp) / ~4.5M (mbrot) words for the unboxing interpreter
   — the budget only needs to be far below the boxed figure.  heapsort's
   sift loops are register-resident too, but its residue is structural:
   ~30k generic sift-down! activations plus fill-random!'s per-slot
   boxing put the measured floor at ~7.3M words (vs ~23.6M interp); the
   10M budget still fails if the loops fall back to boxed locals. *)
let vm_alloc_budgets =
  [
    ("sumfp", 50_000.0);
    ("mbrot", 50_000.0);
    ("heapsort", 10_000_000.0);
    (* the 0CFA vector kernels: direct calls + closure unboxing +
       bound-check elision put typed/vm at ~3.1M (nbody) / ~4.5M
       (spectralnorm) minor words, vs ~7.1M / ~5.5M for typed-nocfa —
       the budgets sit between the two, so losing the flow-driven wins
       trips the gate *)
    ("nbody", 5_000_000.0);
    ("spectralnorm", 5_000_000.0);
  ]

(** The allocation gate over a figure's measured rows: under the
    bytecode VM the typed variant of each budgeted float kernel must
    stay within its minor-words budget. *)
let check_vm_allocation (rows : row list) =
  List.iter
    (fun row ->
      let name = row.program.Programs.name in
      match List.assoc_opt name vm_alloc_budgets with
      | None -> ()
      | Some budget -> (
          match List.assoc_opt Typed row.results with
          | Some { vm = Some vm; _ } when vm.vm_gc_minor_words > budget ->
              alloc_gate_failures := (name, vm.vm_gc_minor_words) :: !alloc_gate_failures;
              Printf.printf
                "!! %s: typed/vm gc_minor_words %.0f exceeds the %.0f-word allocation budget\n"
                name vm.vm_gc_minor_words budget
          | _ -> ()))
    rows

(* -- the expected-rewrite gate -------------------------------------------------

   The flow-analysis counterpart of the allocation gate: the 0CFA-fed
   rewrite classes must fire on the [Typed] variant of the benchmarks
   below (a silently inert analysis cannot pass), and must all stay at
   zero on [Typed_no_cfa] (facts leaking past the ablation switch cannot
   pass either).  The driver exits nonzero on any violation, like
   {!checksum_mismatches}. *)

(** Every rewrite rule fed by the 0CFA facts table (as opposed to the
    type-driven rules like [fl:+] or [vec:ref]). *)
let cfa_rules = [ "opt:direct-call"; "opt:closure-unbox"; "vec:ref!"; "vec:set!" ]

(** Per-benchmark floors: rules that must fire at least once on the
    [Typed] variant.  spectralnorm's [mulAv] keeps its matrix-element
    accessor as a single-call-site [let]-bound lambda precisely so
    closure unboxing has a benchmarked target. *)
let expected_rewrites =
  [
    ("spectralnorm", [ "opt:direct-call"; "opt:closure-unbox"; "vec:ref!"; "vec:set!" ]);
    ("nbody", [ "opt:direct-call" ]);
  ]

let rewrite_gate_failures : (string * string) list ref = ref []

let check_expected_rewrites (rows : row list) =
  let count rules rule = match List.assoc_opt rule rules with Some n -> n | None -> 0 in
  List.iter
    (fun row ->
      let name = row.program.Programs.name in
      (match (List.assoc_opt name expected_rewrites, List.assoc_opt Typed row.results) with
      | Some rules, Some r ->
          List.iter
            (fun rule ->
              if count r.rewrites rule = 0 then begin
                rewrite_gate_failures := (name, rule) :: !rewrite_gate_failures;
                Printf.printf "!! %s: expected rewrite %s did not fire on typed\n" name rule
              end)
            rules
      | _ -> ());
      match List.assoc_opt Typed_no_cfa row.results with
      | Some r ->
          List.iter
            (fun rule ->
              let n = count r.rewrites rule in
              if n > 0 then begin
                rewrite_gate_failures := (name, rule) :: !rewrite_gate_failures;
                Printf.printf "!! %s: 0CFA-fed rewrite %s fired %d times with the analysis off\n"
                  name rule n
              end)
            cfa_rules
      | None -> ())
    rows

(** Run every benchmark of [figure] under [variants]; print a table of
    runtimes normalized to the [Base] series (smaller is better, as in the
    paper's figures).  Returns the raw rows so the driver can also emit
    them as machine-readable JSON (see {!json_of_figure}).  [?only]
    restricts the figure to the named benchmarks (on top of the user's
    [--filter]) — the fig6 driver uses it to fold the two vector kernels
    into BENCH_fig6.json without dragging in the rest of fig7. *)
let run_figure ?rounds ?only ~title ~figure ~(variants : variant list) () : row list =
  Printf.printf "\n%s\n%s (normalized to untyped = 1.00; smaller is better)\n%s\n" line title line;
  Printf.printf "%-14s %-10s" "benchmark" "suite";
  List.iter (fun v -> Printf.printf "%14s" (variant_name v)) variants;
  Printf.printf "%14s\n" "untyped(ms)";
  let rows = ref [] in
  List.iter
    (fun (b : Programs.t) ->
      let results = measure_variants ?rounds b variants in
      check_agreement b.Programs.name results;
      let base_ms =
        match List.assoc_opt Base results with
        | Some r -> r.mean_ms
        | None -> (snd (List.hd results)).mean_ms
      in
      Printf.printf "%-14s %-10s" b.Programs.name b.Programs.suite;
      List.iter
        (fun v ->
          let r = List.assoc v results in
          Printf.printf "%14.2f" (r.mean_ms /. base_ms))
        variants;
      Printf.printf "%14.1f\n" base_ms;
      rows := { program = b; results } :: !rows;
      flush stdout)
    (List.filter
       (fun (b : Programs.t) ->
         (match only with
         | None -> true
         | Some names -> List.mem b.Programs.name names)
         && matches_filter b.Programs.name)
       (Programs.by_figure figure));
  List.rev !rows

(* -- the expansion stress figure ---------------------------------------------

   The macro-heavy stress family ([Programs.expand_family]) is measured
   expansion-only (the evaluator never sees most of these programs'
   cost), and each program is additionally run once so its printed
   checksum can be compared against the generator's closed-form expected
   value — a mangled expansion cannot pass as a speedup. *)

type expand_row = {
  stress : Programs.t;
  stress_expand_ms : float;
  stress_checksum : string;
  stress_expected : string;
}

let run_expand_figure ?(rounds = 3) () : expand_row list =
  Printf.printf "\n%s\nExpansion stress family (expansion-only; the hygiene-at-speed series)\n%s\n"
    line line;
  Printf.printf "%-14s %-10s %14s %12s %10s\n" "benchmark" "suite" "expand(ms)" "checksum" "ok";
  List.map
    (fun ((b : Programs.t), expected) ->
      let source = variant_source b Base in
      let expand_ms = measure_expand_ms ~rounds ~name:b.Programs.name source in
      let m = declare_variant b Base in
      let checksum, _ = run_once m Base in
      if not (String.equal checksum expected) then begin
        checksum_mismatches := (b.Programs.name, Base) :: !checksum_mismatches;
        Printf.printf "!! %s: expected checksum %s, got %s\n" b.Programs.name expected checksum
      end;
      Printf.printf "%-14s %-10s %14.2f %12s %10s\n" b.Programs.name b.Programs.suite expand_ms
        checksum
        (if String.equal checksum expected then "yes" else "NO");
      flush stdout;
      { stress = b; stress_expand_ms = expand_ms; stress_checksum = checksum; stress_expected = expected })
    (List.filter
       (fun ((b : Programs.t), _) -> matches_filter b.Programs.name)
       Programs.expand_family)

let json_of_expand_rows (rows : expand_row list) : Json.t =
  Json.Arr
    (List.map
       (fun r ->
         Json.Obj
           [
             ("name", Json.Str r.stress.Programs.name);
             ("expand_ms", Json.Num r.stress_expand_ms);
             ("checksum", Json.Str r.stress_checksum);
             ("expected", Json.Str r.stress_expected);
             ("ok", Json.Bool (String.equal r.stress_checksum r.stress_expected));
           ])
       rows)

(* -- the parallel-build figure (-j) -------------------------------------------

   The domain-parallel build driver measured over synthetic require
   graphs ({!Liblang_compiled.Genproj}): each shape is built cold twice —
   [-j 1] and [-j jobs] — into separate fresh cache dirs, the artifact
   sets are compared byte-for-byte, and the program is then warm-run so
   its printed value can be checked against the generator's closed form.
   A speedup can only come from the domain pool; a determinism or
   correctness slip fails the run like any other checksum mismatch. *)

type par_row = {
  par_shape : string;
  par_modules : int;
  par_jobs : int;  (** worker domains of the parallel build *)
  par_graph_ms : float;  (** require-graph scan (parallel build) *)
  par_serial_ms : float;  (** cold [-j 1] wall clock, whole build *)
  par_parallel_ms : float;  (** cold [-j jobs] wall clock, whole build *)
  par_tasks : int;
  par_lock_waits : int;
  par_identical : bool;  (** artifact stores byte-identical across -j1/-jN *)
  par_checksum : string;
  par_expected : string;
}

(* Sorted (file name, content digest) list of a cache dir — the byte-parity
   comparison between the serial and parallel stores. *)
let dir_digests (dir : string) : (string * string) list =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      let files = Array.to_list files in
      List.filter_map
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then None else Some (f, Digest.to_hex (Digest.file p)))
        (List.sort String.compare files)

let run_parallel_figure ~(jobs : int) ~(smoke : bool) () : par_row list =
  let module Build = Core.Compiled.Build in
  let module Genproj = Core.Compiled.Genproj in
  let n = if smoke then 8 else 24 in
  let depth = if smoke then 6 else 10 in
  Printf.printf
    "\n%s\nParallel separate compilation (-j %d, %d cores): cold builds over %d-module graphs\n%s\n"
    line jobs (Domain.recommended_domain_count ()) n line;
  Printf.printf "%-14s %12s %12s %12s %8s %10s %6s\n" "shape" "graph(ms)" "-j1(ms)"
    (Printf.sprintf "-j%d(ms)" jobs) "speedup" "identical" "ok";
  List.filter_map
    (fun shape ->
      let shape_name = Genproj.shape_to_string shape in
      let name = "par-" ^ shape_name in
      if not (matches_filter name) then None
      else begin
        incr cached_tmp_counter;
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "liblang-bench-par-%d-%d" (Unix.getpid ()) !cached_tmp_counter)
        in
        (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
        let root, expected = Genproj.generate ~dir ~shape ~n ~depth () in
        let expected = string_of_int expected in
        let cache_s = Filename.concat dir "cache-serial" in
        let cache_p = Filename.concat dir "cache-parallel" in
        Fun.protect
          ~finally:(fun () ->
            Core.Compiled.reset_session ();
            rm_rf dir)
        @@ fun () ->
        let build ~jobs cache =
          Core.Compiled.reset_session ();
          let t0 = now () in
          let r = Core.Compiled.with_cache_dir cache (fun () -> Build.build ~jobs [ root ]) in
          (r, 1000.0 *. (now () -. t0))
        in
        let rs, serial_ms = build ~jobs:1 cache_s in
        let rp, parallel_ms = build ~jobs cache_p in
        let identical = dir_digests cache_s = dir_digests cache_p in
        (* the checksum gate: warm-acquire the program through the serial
           store and instantiate it; it must print the closed form *)
        Core.Compiled.reset_session ();
        let checksum =
          Core.Compiled.with_cache_dir cache_s (fun () ->
              let m = Core.Compiled.compile_file root in
              fst (Prims.with_captured_output (fun () -> Modsys.instantiate m)))
        in
        let ok =
          Build.ok rs && Build.ok rp && identical && String.equal checksum expected
        in
        if not ok then checksum_mismatches := (name, Base) :: !checksum_mismatches;
        Printf.printf "%-14s %12.1f %12.1f %12.1f %7.2fx %10s %6s\n" shape_name
          rp.Build.graph_ms serial_ms parallel_ms
          (serial_ms /. parallel_ms)
          (if identical then "yes" else "NO")
          (if ok then "yes" else "NO");
        flush stdout;
        Some
          {
            par_shape = shape_name;
            par_modules = n;
            par_jobs = rp.Build.jobs;
            par_graph_ms = rp.Build.graph_ms;
            par_serial_ms = serial_ms;
            par_parallel_ms = parallel_ms;
            par_tasks = rp.Build.tasks;
            par_lock_waits = rp.Build.lock_waits;
            par_identical = identical;
            par_checksum = checksum;
            par_expected = expected;
          }
      end)
    [ Genproj.Wide; Genproj.Diamond; Genproj.Chain ]

let json_of_par_rows ~(jobs : int) (rows : par_row list) : Json.t =
  Json.Obj
    [
      ("jobs", Json.Num (float_of_int jobs));
      (* a -jN speedup needs >= N cores; recording the machine's count
         makes a speedup < 1 on a 1-core CI box interpretable *)
      ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ( "projects",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("shape", Json.Str r.par_shape);
                   ("modules", Json.Num (float_of_int r.par_modules));
                   ("jobs", Json.Num (float_of_int r.par_jobs));
                   ("graph_ms", Json.Num r.par_graph_ms);
                   ("compile_serial_ms", Json.Num r.par_serial_ms);
                   ("compile_parallel_ms", Json.Num r.par_parallel_ms);
                   ("speedup", Json.Num (r.par_serial_ms /. r.par_parallel_ms));
                   ("tasks", Json.Num (float_of_int r.par_tasks));
                   ("lock_waits", Json.Num (float_of_int r.par_lock_waits));
                   ("artifacts_identical", Json.Bool r.par_identical);
                   ("checksum", Json.Str r.par_checksum);
                   ("expected", Json.Str r.par_expected);
                   ("ok", Json.Bool (String.equal r.par_checksum r.par_expected && r.par_identical));
                 ])
             rows) );
    ]

(* -- the --serve series (concurrent compile server under mixed load) -----------

   The compile-server daemon measured end to end, twice — once with one
   request worker and once with a pool — under a {e mixed} load: each of
   N client domains issues M requests on its own connection, mostly warm
   [run]s of a shared generated project but every k-th request a {e cold}
   [run] of a freshly written module (unique per request, so it can never
   hit any cache).  Every response's output is checked against its closed
   form; latency percentiles are reported per class (warm vs cold),
   because the whole point of concurrent dispatch is that the warm tail
   stays flat while cold work happens next to it.

   Gates (unconditional, exit 1 — like a checksum mismatch):
   - byte identity: every response, warm or cold, exactly matches
   - [warm_compiles = 0]: a final fresh-session [compile] of the shared
     project must compile nothing

   Hardware-conditional (like the PR-5 speedup gates, only on > 1 core):
   - head-of-line: with a [store.write=delay] fault plan making one
     session's cold compile deterministically slow, another session's
     warm requests on the pooled daemon must not inherit that delay.
   The workers=1 vs workers=N throughput ratio is recorded, never
   gated — CI boxes don't promise cores. *)

(* Nearest-rank percentile of an ascending-sorted array. *)
let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of (l : float list) : float array =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let percentile_fields (prefix : string) (sorted : float array) :
    (string * Json.t) list =
  [
    (prefix ^ "_p50_ms", Json.Num (percentile sorted 50.0));
    (prefix ^ "_p95_ms", Json.Num (percentile sorted 95.0));
    (prefix ^ "_p99_ms", Json.Num (percentile sorted 99.0));
  ]

(* One daemon, one load: [clients] connections x [per_client] requests,
   every [cold_every]-th one cold.  Returns the series JSON, its gate
   verdict, and the throughput (for the cross-series ratio). *)
let run_server_series ~(workers : int) ~(clients : int) ~(per_client : int)
    ~(cold_every : int) ~(n : int) () : Json.t * bool * float =
  let module Server = Liblang_server.Server in
  let module Client = Liblang_server.Client in
  let module P = Liblang_server.Protocol in
  let module Genproj = Core.Compiled.Genproj in
  incr cached_tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "liblang-bench-serve-%d-%d" (Unix.getpid ()) !cached_tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Core.Compiled.reset_session ();
      rm_rf dir)
  @@ fun () ->
  let root, expected = Genproj.generate ~dir ~shape:Genproj.Diamond ~n ~depth:6 () in
  let expected = string_of_int expected in
  let socket = Filename.concat dir "server.sock" in
  let cfg =
    {
      Server.socket_path = socket;
      cache_dir = Filename.concat dir "cache";
      workers;
      default_jobs = 1;
      fuel = None;
      engine = Liblang_core.Pipeline.Interp;
      session_ttl = None;
      max_sessions = None;
    }
  in
  let server = Domain.spawn (fun () -> Server.serve cfg) in
  let failures = Atomic.make 0 in
  (* prime: one cold compile of the shared project, so its warm requests
     measure the steady state *)
  (match Client.connect ~retries:200 socket with
  | Ok c ->
      (match Client.request c (P.Compile { path = root; jobs = None }) with
      | Ok j when Client.ok_of j -> ()
      | _ -> Atomic.incr failures);
      Client.close c
  | Error _ -> Atomic.incr failures);
  let t0 = now () in
  let client_domains =
    List.init clients (fun ci ->
        Domain.spawn (fun () ->
            match Client.connect ~retries:200 socket with
            | Error _ ->
                Atomic.incr failures;
                ([], [])
            | Ok conn ->
                let warm = ref [] and cold = ref [] in
                for i = 0 to per_client - 1 do
                  let is_cold = cold_every > 0 && i mod cold_every = cold_every - 1 in
                  if is_cold then begin
                    (* a module nothing has ever seen: cold by construction *)
                    let k = (ci * per_client) + i in
                    let path =
                      Filename.concat dir (Printf.sprintf "cold_%d_%d.scm" ci i)
                    in
                    let oc = open_out_bin path in
                    output_string oc (Printf.sprintf "#lang racket\n(display %d)\n" k);
                    close_out oc;
                    let s = now () in
                    (match Client.request conn (P.Run { path; fuel = None }) with
                    | Ok j
                      when Client.ok_of j
                           && String.equal (Client.output_of j) (string_of_int k) ->
                        ()
                    | _ -> Atomic.incr failures);
                    cold := (1000.0 *. (now () -. s)) :: !cold
                  end
                  else begin
                    let s = now () in
                    (match Client.request conn (P.Run { path = root; fuel = None }) with
                    | Ok j
                      when Client.ok_of j && String.equal (Client.output_of j) expected
                      ->
                        ()
                    | _ -> Atomic.incr failures);
                    warm := (1000.0 *. (now () -. s)) :: !warm
                  end
                done;
                Client.close conn;
                (!warm, !cold)))
  in
  let parts = List.map Domain.join client_domains in
  let wall_ms = 1000.0 *. (now () -. t0) in
  (* the warm gate: a brand-new session must compile nothing *)
  let warm_compiles =
    match Client.connect ~retries:50 socket with
    | Error _ -> -1
    | Ok conn ->
        let r =
          match Client.request conn (P.Compile { path = root; jobs = None }) with
          | Ok j when Client.ok_of j -> Client.summary_count j "compiles"
          | _ -> -1
        in
        ignore (Client.request conn P.Shutdown);
        Client.close conn;
        r
  in
  Domain.join server;
  let warm_lats = sorted_of (List.concat_map fst parts)
  and cold_lats = sorted_of (List.concat_map snd parts) in
  let total = clients * per_client in
  let measured = Array.length warm_lats + Array.length cold_lats in
  let req_per_s = float_of_int total /. (wall_ms /. 1000.0) in
  let ok = Atomic.get failures = 0 && warm_compiles = 0 && measured = total in
  Printf.printf "%-8d %8.1f %9.2f %9.2f %9.2f %9.2f %8.1f %5d %5s\n%!" workers
    req_per_s
    (percentile warm_lats 50.0)
    (percentile warm_lats 95.0)
    (percentile cold_lats 50.0)
    (percentile cold_lats 95.0)
    wall_ms warm_compiles
    (if ok then "yes" else "NO");
  ( Json.Obj
      ([
         ("workers", Json.Num (float_of_int workers));
         ("clients", Json.Num (float_of_int clients));
         ("requests_per_client", Json.Num (float_of_int per_client));
         ("requests", Json.Num (float_of_int total));
         ("warm_requests", Json.Num (float_of_int (Array.length warm_lats)));
         ("cold_requests", Json.Num (float_of_int (Array.length cold_lats)));
         ("modules", Json.Num (float_of_int n));
         ("wall_ms", Json.Num wall_ms);
         ("req_per_s", Json.Num req_per_s);
       ]
      @ percentile_fields "warm" warm_lats
      @ percentile_fields "cold" cold_lats
      @ [
          ("outputs_identical", Json.Bool (Atomic.get failures = 0));
          ("warm_compiles", Json.Num (float_of_int warm_compiles));
          ("ok", Json.Bool ok);
        ]),
    ok,
    req_per_s )

(* The head-of-line probe: on a pooled daemon, make one session's cold
   compile deterministically slow (a [store.write=delay] fault plan — warm
   requests never write artifacts, so only the cold request inherits the
   delay) and measure another session's warm latencies while it runs.
   Sessions land on distinct workers (consecutive accepts shard round-
   robin), so the warm tail must stay far below the injected delay.  The
   latency gate only fires on > 1 core — on a 1-core box the domains
   timeshare and the warm requests legitimately stall. *)
let run_server_head_of_line ~(workers : int) ~(n : int) () : Json.t * bool =
  let module Server = Liblang_server.Server in
  let module Client = Liblang_server.Client in
  let module P = Liblang_server.Protocol in
  let module Genproj = Core.Compiled.Genproj in
  let delay_ms = 250.0 in
  let warm_runs = 5 in
  incr cached_tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "liblang-bench-serve-%d-%d" (Unix.getpid ()) !cached_tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Core.Fault.install None;
      Core.Compiled.reset_session ();
      rm_rf dir)
  @@ fun () ->
  let root, expected = Genproj.generate ~dir ~shape:Genproj.Diamond ~n ~depth:6 () in
  let expected = string_of_int expected in
  let socket = Filename.concat dir "server.sock" in
  let cfg =
    {
      Server.socket_path = socket;
      cache_dir = Filename.concat dir "cache";
      workers;
      default_jobs = 1;
      fuel = None;
      engine = Liblang_core.Pipeline.Interp;
      session_ttl = None;
      max_sessions = None;
    }
  in
  let server = Domain.spawn (fun () -> Server.serve cfg) in
  let failures = ref 0 in
  let fail () = incr failures in
  (* two sessions on consecutive accepts -> distinct home workers *)
  let conn_warm =
    match Client.connect ~retries:200 socket with
    | Ok c -> Some c
    | Error _ ->
        fail ();
        None
  in
  let conn_cold =
    match Client.connect ~retries:50 socket with
    | Ok c -> Some c
    | Error _ ->
        fail ();
        None
  in
  (* warm the measuring session before arming the plan *)
  (match conn_warm with
  | Some c -> (
      match Client.request c (P.Run { path = root; fuel = None }) with
      | Ok j when Client.ok_of j && String.equal (Client.output_of j) expected -> ()
      | _ -> fail ())
  | None -> ());
  let cold_path = Filename.concat dir "cold_hol.scm" in
  let oc = open_out_bin cold_path in
  output_string oc "#lang racket\n(display 7)\n";
  close_out oc;
  (match Core.Fault.parse (Printf.sprintf "seed=1;store.write=delay@%.0f" delay_ms) with
  | Ok plan -> Core.Fault.install (Some plan)
  | Error _ -> fail ());
  (* launch the slow cold compile, then measure warm latencies next to it *)
  (match conn_cold with
  | Some c -> ( match Client.send c (P.Run { path = cold_path; fuel = None }) with
    | Ok _ -> ()
    | Error _ -> fail ())
  | None -> ());
  Unix.sleepf 0.03;
  let warm_lats = ref [] in
  (match conn_warm with
  | Some c ->
      for _ = 1 to warm_runs do
        let s = now () in
        (match Client.request c (P.Run { path = root; fuel = None }) with
        | Ok j when Client.ok_of j && String.equal (Client.output_of j) expected -> ()
        | _ -> fail ());
        warm_lats := (1000.0 *. (now () -. s)) :: !warm_lats
      done
  | None -> ());
  (match conn_cold with
  | Some c -> (
      match Client.recv c with
      | Ok j when Client.ok_of j && String.equal (Client.output_of j) "7" -> ()
      | _ -> fail ())
  | None -> ());
  Core.Fault.install None;
  (match Client.connect ~retries:50 socket with
  | Ok c ->
      ignore (Client.request c P.Shutdown);
      Client.close c
  | Error _ -> fail ());
  Option.iter Client.close conn_warm;
  Option.iter Client.close conn_cold;
  Domain.join server;
  let sorted = sorted_of !warm_lats in
  let warm_p95 = percentile sorted 95.0 in
  let cores = Domain.recommended_domain_count () in
  let gated = cores > 1 && workers > 1 in
  let isolated = warm_p95 < delay_ms /. 2.0 in
  let ok = !failures = 0 && ((not gated) || isolated) in
  Printf.printf
    "head-of-line: cold store.write delayed %.0fms, warm p95 %.2fms (%s%s)\n%!"
    delay_ms warm_p95
    (if isolated then "isolated" else "BLOCKED")
    (if gated then "" else "; not gated on this hardware");
  ( Json.Obj
      [
        ("delay_ms", Json.Num delay_ms);
        ("warm_runs", Json.Num (float_of_int warm_runs));
        ("warm_p95_ms", Json.Num warm_p95);
        ("isolated", Json.Bool isolated);
        ("gated", Json.Bool gated);
        ("outputs_identical", Json.Bool (!failures = 0));
        ("ok", Json.Bool ok);
      ],
    ok )

let run_server_figure ~(smoke : bool) () : Json.t =
  let cores = Domain.recommended_domain_count () in
  let pool_workers = max 2 (min 4 (cores - 1)) in
  let clients = if smoke then 2 else 4 in
  let per_client = if smoke then 6 else 24 in
  let cold_every = if smoke then 3 else 4 in
  let n = if smoke then 6 else 12 in
  Printf.printf
    "\n%s\nCompile server: %d clients x %d requests, every %dth cold (%d-module diamond)\n%s\n"
    line clients per_client cold_every n line;
  Printf.printf "%-8s %8s %9s %9s %9s %9s %8s %5s %5s\n" "workers" "req/s"
    "warm-p50" "warm-p95" "cold-p50" "cold-p95" "wall(ms)" "warm" "ok";
  let j1, ok1, rps1 =
    run_server_series ~workers:1 ~clients ~per_client ~cold_every ~n ()
  in
  let jn, okn, rpsn =
    run_server_series ~workers:pool_workers ~clients ~per_client ~cold_every ~n ()
  in
  let hol, ok_hol = run_server_head_of_line ~workers:pool_workers ~n:6 () in
  let ok = ok1 && okn && ok_hol in
  if not ok then checksum_mismatches := ("serve", Base) :: !checksum_mismatches;
  Json.Obj
    [
      ("cores", Json.Num (float_of_int cores));
      ("series", Json.Arr [ j1; jn ]);
      ("throughput_speedup", Json.Num (rpsn /. rps1));
      ("head_of_line", hol);
      ("ok", Json.Bool ok);
    ]

(* -- machine-readable output (BENCH_<figure>.json) ---------------------------- *)

(** The JSON shape of a figure run; schema documented in
    docs/observability.md ("The bench pipeline").  [median_ms] is the
    median of [runs] alternating rounds; [rewrites] is the optimizer's
    per-rule firing histogram for the variant's compilation, so a claimed
    speedup (e.g. EXPERIMENTS.md's sumfp 0.55x) is checkable against the
    rules that produced it. *)
let json_of_figure ?(expansion = []) ?parallel ?server ~figure ~rounds ~smoke
    (rows : row list) : Json.t =
  let json_of_result (v, (r : result)) =
    Json.Obj
      ([
         ("variant", Json.Str (variant_name v));
         ("median_ms", Json.Num r.mean_ms);
         ("checksum", Json.Str r.checksum);
         ("runs", Json.Num (float_of_int r.runs));
         ("expand_ms", Json.Num r.expand_ms);
         ("gc_minor_words", Json.Num r.gc_minor_words);
         ("gc_major_words", Json.Num r.gc_major_words);
         ("analysis_ms", Json.Num r.analysis_ms);
       ]
      @ (match r.vm with
        | None -> []
        | Some vm ->
            (* the bytecode-VM series for the same variant ([--engine vm]);
               vm_gc_minor_words feeds the allocation gate *)
            [
              ("vm_run_ms", Json.Num vm.vm_ms);
              ("vm_checksum", Json.Str vm.vm_checksum);
              ("vm_gc_minor_words", Json.Num vm.vm_gc_minor_words);
              ("vm_gc_major_words", Json.Num vm.vm_gc_major_words);
            ])
      @ (match r.cached with
        | None -> []
        | Some (cold, warm) ->
            (* the --cached series: same source compiled twice through the
               artifact store; warm is the §5 replay path *)
            [ ("compile_cold_ms", Json.Num cold); ("compile_warm_ms", Json.Num warm) ])
      @
      if not (is_typed v) then []
      else
        [
          ( "rewrites",
            Json.Obj (List.map (fun (rule, n) -> (rule, Json.Num (float_of_int n))) r.rewrites)
          );
          ( "rewrite_total",
            Json.Num (float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 r.rewrites))
          );
          (* the flonum-specialization subset (fl:* and cpx:* rules) —
             EXPERIMENTS.md's shape claim is that these are nonzero exactly
             on the float benchmarks (sumfp, fibfp, mbrot, heapsort in
             fig6) *)
          ( "flonum_rewrites",
            Json.Num
              (float_of_int
                 (List.fold_left
                    (fun acc (rule, n) ->
                      let pre p =
                        String.length rule >= String.length p
                        && String.sub rule 0 (String.length p) = p
                      in
                      if pre "fl:" || pre "cpx:" then acc + n else acc)
                    0 r.rewrites)) );
          (* the 0CFA-fed subset — EXPERIMENTS.md's flow-analysis shape
             claim is that these are nonzero exactly on the typed variant
             (and zero on typed-nocfa, the ablation) *)
          ( "cfa_rewrites",
            Json.Num
              (float_of_int
                 (List.fold_left
                    (fun acc (rule, n) ->
                      if List.mem rule cfa_rules then acc + n else acc)
                    0 r.rewrites)) );
          (* the per-class histogram: rule firings grouped by the prefix
             before the rule's ":" (fl, cpx, opt, vec, ...), so a figure
             reader can see where a variant's rewrites came from without
             re-deriving the rule taxonomy *)
          ( "rewrite_classes",
            Json.Obj
              (let classes = Hashtbl.create 8 in
               let order = ref [] in
               List.iter
                 (fun (rule, n) ->
                   let cls =
                     match String.index_opt rule ':' with
                     | Some i -> String.sub rule 0 i
                     | None -> rule
                   in
                   match Hashtbl.find_opt classes cls with
                   | Some r -> r := !r + n
                   | None ->
                       Hashtbl.add classes cls (ref n);
                       order := cls :: !order)
                 r.rewrites;
               List.rev_map
                 (fun cls -> (cls, Json.Num (float_of_int !(Hashtbl.find classes cls))))
                 !order) );
        ])
  in
  let json_of_row (row : row) =
    Json.Obj
      [
        ("name", Json.Str row.program.Programs.name);
        ("suite", Json.Str row.program.Programs.suite);
        ("variants", Json.Arr (List.map json_of_result row.results));
      ]
  in
  Json.Obj
    ([
       (* 2 added per-variant gc_minor_words/gc_major_words and the
          optional top-level "parallel" section; 3 adds the optional
          top-level "server" section (--serve); 4 adds the per-variant
          bytecode-VM series (vm_run_ms / vm_checksum /
          vm_gc_minor_words / vm_gc_major_words); 5 adds the flow-analysis
          series — per-variant analysis_ms, the cfa_rewrites subset, the
          rewrite_classes histogram, and the typed-nocfa ablation rows;
          6 reshapes the server section for the concurrent daemon: a
          "series" array (one mixed cold/warm load per worker count, with
          per-class warm_/cold_ percentiles), the throughput_speedup
          ratio, and the head_of_line probe *)
       ("schema", Json.Num 6.0);
       ("figure", Json.Str figure);
       ("rounds", Json.Num (float_of_int rounds));
       ("smoke", Json.Bool smoke);
       ( "checksum_mismatches",
         Json.Arr
           (List.rev_map
              (fun (name, v) -> Json.Str (name ^ "/" ^ variant_name v))
              !checksum_mismatches) );
       ("benchmarks", Json.Arr (List.map json_of_row rows));
       ("expansion_stress", json_of_expand_rows expansion);
     ]
    @ (match parallel with None -> [] | Some p -> [ ("parallel", p) ])
    @ match server with None -> [] | Some s -> [ ("server", s) ])

(** Write a figure's rows to [path] (e.g. [BENCH_fig6.json]). *)
let write_figure_json ?expansion ?parallel ?server ~path ~figure ~rounds ~smoke
    (rows : row list) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string ~pretty:true
           (json_of_figure ?expansion ?parallel ?server ~figure ~rounds ~smoke rows));
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

(* -- the chaos smoke (--chaos) ------------------------------------------------

   The closed-loop robustness gate, in-process: for each graph shape, a
   fault-free [-j 1] build establishes the reference artifact set, then a
   series of seeded fault plans (error / torn / delay modes — [crash]
   would exit this process; tools/chaos_check.sh covers crashes in
   subprocesses) is run through a [-j jobs] build into one shared,
   progressively damaged cache.  Every faulted build must {e return} —
   ok or with contained diagnostics, never an escaped exception, never a
   hang — and after a final fault-free recovery build the cache's
   [.lart] set must be byte-identical to the reference, the warm program
   must print the generator's closed form, and no [*.tmp.*] orphans may
   remain ([.bad] quarantine post-mortems are allowed by design —
   docs/robustness.md). *)

(* the [.lart]-only view of a cache dir: quarantined [.bad] files and
   (pre-sweep) temp files are not part of artifact-set parity *)
let lart_digests (dir : string) : (string * string) list =
  List.filter
    (fun (f, _) ->
      let n = String.length f in
      n > 5 && String.equal (String.sub f (n - 5) 5) ".lart")
    (dir_digests dir)

let chaos_plan ~seed ~round : string =
  match round mod 3 with
  | 0 ->
      Printf.sprintf
        "seed=%d;deadline=30;store.read=error~0.25;store.write=torn@64~0.3;build.task=error~0.25"
        seed
  | 1 ->
      Printf.sprintf
        "seed=%d;deadline=30;store.rename=error~0.3;store.lock=delay@5~0.2;loader.replay=error~0.3"
        seed
  | _ ->
      Printf.sprintf
        "seed=%d;deadline=30;build.spawn=error~0.25;store.write=torn@40~0.25;build.task=delay@10~0.2"
        seed

let run_chaos_smoke ~(jobs : int) () : unit =
  let module Build = Core.Compiled.Build in
  let module Genproj = Core.Compiled.Genproj in
  let module Fault = Core.Fault in
  let module Metrics = Core.Metrics in
  Printf.printf
    "\n%s\nChaos smoke (-j %d): seeded fault schedules over gen-modules graphs\n%s\n" line jobs
    line;
  Printf.printf "%-14s %8s %8s %8s %10s %10s %6s\n" "shape" "plans" "failed" "faults"
    "recovered" "identical" "ok";
  List.iter
    (fun shape ->
      let shape_name = Genproj.shape_to_string shape in
      let name = "chaos-" ^ shape_name in
      if matches_filter name then begin
        incr cached_tmp_counter;
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "liblang-bench-chaos-%d-%d" (Unix.getpid ()) !cached_tmp_counter)
        in
        (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
        Fun.protect
          ~finally:(fun () ->
            Core.Compiled.reset_session ();
            Fault.install None;
            rm_rf dir)
        @@ fun () ->
        let root, expected = Genproj.generate ~dir ~shape ~n:6 ~depth:4 () in
        let expected = string_of_int expected in
        let cache_ref = Filename.concat dir "cache-reference" in
        let cache_chaos = Filename.concat dir "cache-chaos" in
        let build ~jobs cache =
          Core.Compiled.reset_session ();
          Core.Compiled.with_cache_dir cache (fun () -> Build.build ~jobs [ root ])
        in
        (* fault-free serial reference *)
        let r_ref = build ~jobs:1 cache_ref in
        if not (Build.ok r_ref) then
          checksum_mismatches := (name ^ "-reference", Base) :: !checksum_mismatches;
        let reference = lart_digests cache_ref in
        (* seeded fault schedules into one shared, progressively damaged cache *)
        let escaped = ref 0 and failed_builds = ref 0 in
        let faults = Metrics.create () in
        let n_plans = 6 in
        for round = 0 to n_plans - 1 do
          let spec = chaos_plan ~seed:(101 * (round + 1)) ~round in
          match Fault.parse spec with
          | Error m -> failwith ("chaos smoke: bad built-in plan: " ^ m)
          | Ok plan -> (
              match
                Fault.with_plan plan (fun () ->
                    Metrics.with_collector faults (fun () -> build ~jobs cache_chaos))
              with
              | r -> if not (Build.ok r) then incr failed_builds
              | exception _ ->
                  (* contained diagnostics are fine; an escaped exception
                     is exactly what this gate exists to catch *)
                  incr escaped)
        done;
        if !escaped > 0 then checksum_mismatches := (name ^ "-escaped", Base) :: !checksum_mismatches;
        (* recovery: a fault-free build over the damaged cache must heal it *)
        let r_rec = build ~jobs cache_chaos in
        let recovered = Build.ok r_rec in
        let identical = lart_digests cache_chaos = reference in
        let is_tmp f =
          let sub = ".tmp." in
          let n = String.length f and m = String.length sub in
          let rec go i = i + m <= n && (String.equal (String.sub f i m) sub || go (i + 1)) in
          go 0
        in
        let no_orphans =
          Array.for_all
            (fun f -> not (is_tmp f))
            (match Sys.readdir cache_chaos with x -> x | exception Sys_error _ -> [||])
        in
        (* warm checksum through the healed store *)
        Core.Compiled.reset_session ();
        let checksum =
          match
            Core.Compiled.with_cache_dir cache_chaos (fun () ->
                let m = Core.Compiled.compile_file root in
                fst (Prims.with_captured_output (fun () -> Modsys.instantiate m)))
          with
          | s -> s
          | exception _ -> "<error>"
        in
        let ok =
          Build.ok r_ref && !escaped = 0 && recovered && identical && no_orphans
          && String.equal checksum expected
        in
        if not ok then checksum_mismatches := (name, Base) :: !checksum_mismatches;
        Printf.printf "%-14s %8d %8d %8d %10s %10s %6s\n" shape_name n_plans !failed_builds
          (Metrics.get faults "fault.injected")
          (if recovered then "yes" else "NO")
          (if identical then "yes" else "NO")
          (if ok then "yes" else "NO");
        flush stdout
      end)
    [ Genproj.Wide; Genproj.Diamond; Genproj.Chain ]
