(** The supervised domain pool ([Parallel.Pool]) that the parallel build
    and the compile server both run on: slot affinity, shared-queue
    dispatch, jobs that submit jobs, supervision by replacement,
    termination when every worker is gone, and the idle hook. *)

open Test_util
module Pool = Liblang_parallel.Parallel.Pool

(* Death callbacks run on the dying worker, where a failed check would go
   unseen; tests that expect deaths record them and check afterwards. *)
let no_death _ _ = ()

(* Record [x] in [log] under [m]. *)
let record m log x = Mutex.protect m (fun () -> log := x :: !log)

(** Jobs of one slot run on one domain, in submission order. *)
let per_slot_fifo () =
  let m = Mutex.create () and log = ref [] in
  let p =
    Pool.create ~workers:2 ~on_death:no_death
      ~run:(fun (slot, i) -> record m log (slot, i, (Domain.self () :> int)))
      ()
  in
  for i = 0 to 19 do
    Pool.submit p ~slot:(i mod 2) (i mod 2, i)
  done;
  check_b "quiesced" true (Pool.quiesce p);
  check_b "nothing stranded" true (Pool.stop p = []);
  List.iter
    (fun slot ->
      let mine = List.rev (List.filter (fun (s, _, _) -> s = slot) !log) in
      check_b "submission order" true
        (List.map (fun (_, i, _) -> i) mine = List.init 10 (fun k -> (2 * k) + slot));
      check_i "one domain per slot" 1
        (List.length (List.sort_uniq compare (List.map (fun (_, _, d) -> d) mine))))
    [ 0; 1 ]

(** A job without a slot runs on whichever worker is free: here slot 0's
    worker is held until the slot-less job has run, which only the other
    worker can do. *)
let slotless_reaches_any_worker () =
  let ran = Atomic.make false and overlapped = Atomic.make false in
  let p =
    Pool.create ~workers:2 ~on_death:no_death
      ~run:(function
        | `Hold -> Atomic.set overlapped (eventually (fun () -> Atomic.get ran))
        | `Free -> Atomic.set ran true)
      ()
  in
  with_test_alarm 30 (fun () ->
      Pool.submit p ~slot:0 `Hold;
      Pool.submit p `Free;
      check_b "quiesced" true (Pool.quiesce p);
      ignore (Pool.stop p));
  check_b "slot-less job ran while slot 0 was held" true (Atomic.get overlapped)

(** Jobs may submit jobs; [quiesce] waits for the whole cascade — with
    workers, and on the calling domain with none. *)
let jobs_submit_jobs () =
  List.iter
    (fun workers ->
      let count = Atomic.make 0 in
      let pool = ref None in
      let run n =
        Atomic.incr count;
        if n > 1 then begin
          Pool.submit (Option.get !pool) (n - 1);
          Pool.submit (Option.get !pool) (n - 1)
        end
      in
      let p = Pool.create ~workers ~on_death:no_death ~run () in
      pool := Some p;
      Pool.submit p 6;
      check_b "quiesced" true (Pool.quiesce p);
      check_i (Printf.sprintf "whole cascade ran (%d workers)" workers) 63 (Atomic.get count);
      check_b "nothing stranded" true (Pool.stop p = []))
    [ 0; 2 ]

(** A worker that dies holding a job is replaced from the dying domain:
    the replacement starts with the [Domain.DLS] state its predecessor
    had, and the slot's later jobs still run. *)
let replacement_keeps_dls () =
  let key = Domain.DLS.new_key ~split_from_parent:Fun.id (fun () -> 0) in
  let died = ref [] and seen = Atomic.make (-1) in
  let p =
    Pool.create ~workers:1
      ~on_death:(fun _ job -> died := job :: !died)
      ~run:(function
        | `Set_and_die ->
            Domain.DLS.set key 42;
            failwith "boom"
        | `Read -> Atomic.set seen (Domain.DLS.get key))
      ()
  in
  with_test_alarm 30 (fun () ->
      Pool.submit p ~slot:0 `Set_and_die;
      Pool.submit p ~slot:0 `Read;
      check_b "quiesced" true (Pool.quiesce p);
      check_i "a replacement is alive" 1 (Pool.alive p);
      check_b "nothing stranded" true (Pool.stop p = []));
  check_b "the death was reported with its job" true (!died = [ Some `Set_and_die ]);
  check_i "replacement sees the predecessor's DLS" 42 (Atomic.get seen)

(** Every worker dying before its first job: nothing is replaced,
    [quiesce] gives up instead of hanging, and [stop] hands back every
    job it could not run. *)
let all_workers_die_at_start () =
  let m = Mutex.create () and deaths = ref [] in
  let p =
    Pool.create ~workers:3
      ~on_start:(fun () -> failwith "no start")
      ~on_death:(fun _ job -> record m deaths job)
      ~run:(fun _ -> Alcotest.fail "no job can run")
      ()
  in
  let stranded =
    with_test_alarm 30 (fun () ->
        List.iter (Pool.submit p) [ 1; 2; 3; 4 ];
        check_b "quiesce gives up" false (Pool.quiesce p);
        Pool.stop p)
  in
  check_b "every worker died, holding no job" true (!deaths = [ None; None; None ]);
  check_b "stop returns the stranded jobs" true (List.sort compare stranded = [ 1; 2; 3; 4 ])

(** The pool sets no GC policy: a job runs on the minor heap a plain
    [Domain.spawn]ed domain gets. *)
let workers_keep_the_default_minor_heap () =
  let spawned = Domain.join (Domain.spawn (fun () -> (Gc.get ()).Gc.minor_heap_size)) in
  let m = Mutex.create () and seen = ref [] in
  let p =
    Pool.create ~workers:2 ~on_death:no_death
      ~run:(fun () -> record m seen (Gc.get ()).Gc.minor_heap_size)
      ()
  in
  with_test_alarm 30 (fun () ->
      for slot = 0 to 1 do
        Pool.submit p ~slot ()
      done;
      check_b "quiesced" true (Pool.quiesce p);
      check_b "nothing stranded" true (Pool.stop p = []));
  check_i "both jobs ran" 2 (List.length !seen);
  List.iter (check_i "a worker's minor heap is a spawned domain's" spawned) !seen

(* -- the idle hook ----------------------------------------------------------- *)

(** The hook runs once the worker has nothing queued, once per idle
    period, and outside the pool lock: a worker held by its first job
    while five more queue runs all six back to back, then the hook once,
    which sees nothing queued. *)
let idle_hook_waits_for_an_empty_queue () =
  let idles = Atomic.make 0 and queued_seen = Atomic.make (-1) in
  let release = Atomic.make false and ran = Atomic.make 0 in
  let pool = ref None in
  let p =
    Pool.create ~workers:1 ~on_death:no_death
      ~on_idle:(fun () ->
        Atomic.set queued_seen (Pool.queued (Option.get !pool));
        Atomic.incr idles)
      ~run:(fun first ->
        if first then ignore (eventually (fun () -> Atomic.get release));
        Atomic.incr ran)
      ()
  in
  pool := Some p;
  with_test_alarm 30 (fun () ->
      Pool.submit p true;
      for _ = 1 to 5 do
        Pool.submit p false
      done;
      Atomic.set release true;
      check_b "quiesced" true (Pool.quiesce p);
      check_b "the hook ran" true (eventually (fun () -> Atomic.get idles = 1));
      check_b "nothing stranded" true (Pool.stop p = []));
  check_i "every job ran" 6 (Atomic.get ran);
  check_i "one idle period, one hook" 1 (Atomic.get idles);
  check_i "the hook saw nothing queued" 0 (Atomic.get queued_seen)

(** A job submitted while the hook runs waits for it, then runs, and a
    second idle period follows it. *)
let job_submitted_during_the_hook_runs () =
  let in_hook = Atomic.make false and release = Atomic.make false in
  let idles = Atomic.make 0 and ran = Atomic.make 0 in
  let p =
    Pool.create ~workers:1 ~on_death:no_death
      ~on_idle:(fun () ->
        if Atomic.fetch_and_add idles 1 = 0 then begin
          Atomic.set in_hook true;
          ignore (eventually (fun () -> Atomic.get release))
        end)
      ~run:(fun () -> Atomic.incr ran)
      ()
  in
  with_test_alarm 30 (fun () ->
      Pool.submit p ();
      check_b "the hook started" true (eventually (fun () -> Atomic.get in_hook));
      Pool.submit p ();
      Atomic.set release true;
      check_b "quiesced" true (Pool.quiesce p);
      check_b "the second idle period ran the hook" true (eventually (fun () -> Atomic.get idles = 2));
      check_b "nothing stranded" true (Pool.stop p = []));
  check_i "both jobs ran" 2 (Atomic.get ran)

(** A replacement worker runs the hook too, on its own domain. *)
let replacement_runs_the_hook () =
  let m = Mutex.create () and hooks = ref [] and died = Atomic.make 0 in
  let p =
    Pool.create ~workers:1
      ~on_death:(fun _ _ -> Atomic.incr died)
      ~on_idle:(fun () -> record m hooks (Domain.self () :> int))
      ~run:(function `Die -> failwith "boom" | `Ok -> ())
      ()
  in
  let hooks_seen n = eventually (fun () -> Mutex.protect m (fun () -> List.length !hooks = n)) in
  with_test_alarm 30 (fun () ->
      Pool.submit p `Ok;
      check_b "the first worker idled" true (hooks_seen 1);
      Pool.submit p `Die;
      Pool.submit p `Ok;
      check_b "quiesced" true (Pool.quiesce p);
      check_b "the replacement idled" true (hooks_seen 2);
      check_b "nothing stranded" true (Pool.stop p = []));
  check_i "one death" 1 (Atomic.get died);
  match !hooks with
  | [ replacement; first ] -> check_b "on two domains" true (replacement <> first)
  | _ -> Alcotest.fail "two idle periods expected"

(** Without the hook an idle worker does nothing: it allocates no more
    between two jobs than waiting takes.  With zero workers nothing
    idles, so a hook never runs. *)
let no_hook_no_idle_work () =
  let m = Mutex.create () and marks = ref [] in
  let p =
    Pool.create ~workers:1 ~on_death:no_death
      ~run:(fun () -> record m marks (Gc.minor_words ()))
      ()
  in
  with_test_alarm 30 (fun () ->
      Pool.submit p ();
      check_b "quiesced" true (Pool.quiesce p);
      Unix.sleepf 0.02;
      Pool.submit p ();
      check_b "nothing stranded" true (Pool.stop p = []));
  (match !marks with
  | [ second; first ] ->
      if second -. first > 1000. then
        Alcotest.failf "the idle worker allocated %.0f words between two jobs" (second -. first)
  | _ -> Alcotest.fail "two jobs expected");
  let idles = Atomic.make 0 and ran = Atomic.make 0 in
  let inline =
    Pool.create ~workers:0 ~on_death:no_death
      ~on_idle:(fun () -> Atomic.incr idles)
      ~run:(fun () -> Atomic.incr ran)
      ()
  in
  Pool.submit inline ();
  check_b "quiesced" true (Pool.quiesce inline);
  Pool.submit inline ();
  check_b "nothing stranded" true (Pool.stop inline = []);
  check_i "inline jobs ran" 2 (Atomic.get ran);
  check_i "no hook with zero workers" 0 (Atomic.get idles)

let suite =
  [
    Alcotest.test_case "pool: per-slot FIFO" `Quick per_slot_fifo;
    Alcotest.test_case "pool: slot-less jobs reach any worker" `Quick slotless_reaches_any_worker;
    Alcotest.test_case "pool: jobs submitted from jobs" `Quick jobs_submit_jobs;
    Alcotest.test_case "pool: replacement keeps DLS" `Quick replacement_keeps_dls;
    Alcotest.test_case "pool: all workers die at start" `Quick all_workers_die_at_start;
    Alcotest.test_case "pool: workers keep the default minor heap" `Quick
      workers_keep_the_default_minor_heap;
    Alcotest.test_case "pool: the idle hook waits for an empty queue" `Quick
      idle_hook_waits_for_an_empty_queue;
    Alcotest.test_case "pool: a job submitted during the idle hook runs" `Quick
      job_submitted_during_the_hook_runs;
    Alcotest.test_case "pool: a replacement worker runs the idle hook" `Quick
      replacement_runs_the_hook;
    Alcotest.test_case "pool: no hook, no idle work" `Quick no_hook_no_idle_work;
  ]
