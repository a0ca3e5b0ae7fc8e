(** The supervised domain pool ([Parallel.Pool]) that the parallel build
    and the compile server both run on: slot affinity, shared-queue
    dispatch, jobs that submit jobs, supervision by replacement, and
    termination when every worker is gone. *)

open Test_util
module Pool = Liblang_parallel.Parallel.Pool

(* Death callbacks run on the dying worker, where a failed check would go
   unseen; tests that expect deaths record them and check afterwards. *)
let no_death _ _ = ()

(* Record [x] in [log] under [m]. *)
let record m log x = Mutex.protect m (fun () -> log := x :: !log)

(* Spin (with short sleeps) until [cond] holds; [false] after 10 s. *)
let eventually cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () = cond () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.001; go ())) in
  go ()

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

let suite =
  [
    Alcotest.test_case "pool: per-slot FIFO" `Quick per_slot_fifo;
    Alcotest.test_case "pool: slot-less jobs reach any worker" `Quick slotless_reaches_any_worker;
    Alcotest.test_case "pool: jobs submitted from jobs" `Quick jobs_submit_jobs;
    Alcotest.test_case "pool: replacement keeps DLS" `Quick replacement_keeps_dls;
    Alcotest.test_case "pool: all workers die at start" `Quick all_workers_die_at_start;
    Alcotest.test_case "pool: workers keep the default minor heap" `Quick
      workers_keep_the_default_minor_heap;
  ]
