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
  gc_minor_words : float;
      (** GC pressure of the median instantiation run: words allocated in
          the minor heap ([Gc.quick_stat] delta around the run; OCaml 5.1
          counts them per minor collection, so a run that allocates less
          than one minor heap reads 0).  Tracks
          allocation-rate regressions that wall-clock medians can hide
          (an optimization that trades time for allocation shows up here
          first). *)
  gc_major_words : float;  (** same, words promoted to / allocated in the major heap *)
  analysis_ms : float;
      (** time spent in the 0CFA pass (the [analyze] span) while compiling
          this variant — 0.0 for untyped variants and for
          [Typed_no_cfa], whose whole point is to skip the pass *)
  vm : vm_result option;
      (** the bytecode-VM series: the same module body
          re-instantiated under {!Liblang_backend.Vm} instead of the
          closure-compiling interpreter.  [None] for the naive backend
          row (the AST walker stands in for other systems; it has no VM
          analogue).  The checksum is compared against the interpreter's
          — a divergent VM fails the run like any other mismatch — and
          [vm_gc_minor_words] records its allocation. *)
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
    matches the (unanchored) regex are measured.  CI smoke uses this to
    run a representative subset instead of the full figure.  A top-level
    [|] is alternation ([Str] would want [\|]; we split on it so the
    conventional spelling works): [--filter 'sumfp|nqueens'] keeps both. *)
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

let variant_source (b : Programs.t) (v : variant) : string =
  let lang, body =
    if is_typed v then ("typed/racket", b.Programs.typed) else ("racket", b.Programs.untyped)
  in
  "#lang " ^ lang ^ "\n" ^ body

(** Compile one variant of a benchmark; returns the module, the
    optimizer's per-rule rewrite counts for that compilation, and the
    time spent in the 0CFA pass (the outermost [analyze] spans, ms). *)
let declare_variant (b : Programs.t) (v : variant) : Modsys.t * (string * int) list * float =
  let source = variant_source b v in
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

(* Run the module body once, under the variant's evaluation regime, and
   return (checksum, elapsed seconds).  [~vm:true] swaps in the bytecode
   backend for the same variant: lowering
   still honours the variant's unboxing toggle, so e.g. typed-noubx/vm
   measures the VM without its float lane. *)
let run_once ?(vm = false) (m : Modsys.t) (v : variant) : string * float =
  let saved_eval = !Modsys.evaluator in
  let saved_unbox = !Interp.unboxing_enabled in
  (Modsys.evaluator :=
     match (vm, v) with
     | true, _ -> Core.Vm.eval_top
     | false, Naive_backend -> Naive.eval_top
     | false, _ -> Interp.eval_top);
  (match v with
  | Typed_no_unbox -> Interp.unboxing_enabled := false
  | _ -> Interp.unboxing_enabled := true);
  Fun.protect
    ~finally:(fun () ->
      Modsys.evaluator := saved_eval;
      Interp.unboxing_enabled := saved_unbox)
    (fun () ->
      m.Modsys.instantiated <- false;
      let out, dt =
        Prims.with_captured_output (fun () ->
            let t0 = now () in
            Modsys.instantiate m;
            now () -. t0)
      in
      (out, dt))

(** Measure one benchmark under several variants at once: warmup each,
    then alternate single runs round-robin (so machine noise affects all
    variants alike) and report the median — the moral equivalent of the
    paper's 20-run averages. *)
let measure_variants ?(rounds = 9) (b : Programs.t) (variants : variant list)
    : (variant * result) list =
  let ms = List.map (fun v -> (v, declare_variant b v)) variants in
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
        gc_minor_words = median (List.map fst gl);
        gc_major_words = median (List.map snd gl);
        analysis_ms;
        vm;
      }
      |> fun r -> (v, r))
    variants

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

(** The rewrite rules fed by the 0CFA facts table (as opposed to the
    type-driven rules like [fl:+] or [vec:ref]); a row's [cfa_rewrites]
    counts their firings. *)
let cfa_rules = [ "opt:direct-call"; "opt:closure-unbox"; "vec:ref!"; "vec:set!" ]

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

(* -- machine-readable output (BENCH_<figure>.json) ---------------------------- *)

(** The JSON shape of a figure run; schema documented in
    docs/observability.md ("The bench pipeline").  [median_ms] is the
    median of [runs] alternating rounds; [rewrites] is the optimizer's
    per-rule firing histogram for the variant's compilation, so a claimed
    speedup (e.g. EXPERIMENTS.md's sumfp 0.55x) is checkable against the
    rules that produced it. *)
let json_of_figure ~figure ~rounds ~smoke (rows : row list) : Json.t =
  let json_of_result (v, (r : result)) =
    Json.Obj
      ([
         ("variant", Json.Str (variant_name v));
         ("median_ms", Json.Num r.mean_ms);
         ("checksum", Json.Str r.checksum);
         ("runs", Json.Num (float_of_int r.runs));
         ("gc_minor_words", Json.Num r.gc_minor_words);
         ("gc_major_words", Json.Num r.gc_major_words);
         ("analysis_ms", Json.Num r.analysis_ms);
       ]
      @ (match r.vm with
        | None -> []
        | Some vm ->
            (* the bytecode-VM series for the same variant *)
            [
              ("vm_run_ms", Json.Num vm.vm_ms);
              ("vm_checksum", Json.Str vm.vm_checksum);
              ("vm_gc_minor_words", Json.Num vm.vm_gc_minor_words);
              ("vm_gc_major_words", Json.Num vm.vm_gc_major_words);
            ])
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
    [
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
          ratio, and the head_of_line probe; 7 drops the sections and
          fields of the series bench/e2e measures: expansion_stress,
          parallel, server, and per-variant expand_ms, compile_cold_ms and
          compile_warm_ms *)
       ("schema", Json.Num 7.0);
       ("figure", Json.Str figure);
       ("rounds", Json.Num (float_of_int rounds));
       ("smoke", Json.Bool smoke);
       ( "checksum_mismatches",
         Json.Arr
           (List.rev_map
              (fun (name, v) -> Json.Str (name ^ "/" ^ variant_name v))
              !checksum_mismatches) );
       ("benchmarks", Json.Arr (List.map json_of_row rows));
    ]

(** Write a figure's rows to [path] (e.g. [BENCH_fig6.json]). *)
let write_figure_json ~path ~figure ~rounds ~smoke (rows : row list) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:true (json_of_figure ~figure ~rounds ~smoke rows));
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path
