(** [daemon]: a [liblang serve] process with its default flags, and two
    generated diamond projects, each on its own connection.  Requests
    arrive open-loop, Poisson at [rate] per second from one generator
    thread, each timed from when it was due.  Nine in ten are warm [run]s;
    every tenth first rewrites a seeded module as its original text plus a
    [(define edit-rev N)], so the files never grow, then [run]s.  Warm
    reads interleave with dirty-cone writes, so latency, queueing and
    invalidation show. *)

module Core = Liblang_core.Core
module Pipeline = Liblang_core.Pipeline
module Genproj = Core.Compiled.Genproj
module Client = Liblang_server.Client
module P = Liblang_server.Protocol
module Json = Core.Json

let rate = 50.0
let edit_every = 10
let size ~smoke = if smoke then (4, 4) else (12, 6)

type project = {
  root : string;
  want : string;
  files : string array;  (** module paths *)
  texts : string array;  (** their generated text *)
}

type request = { id : int; due : float; conn : int; edit : int option  (** module index *) }

(* The seeded schedule: Poisson arrival offsets over [slice] seconds, each
   request on a seeded connection, every tenth an edit of a seeded middle
   module of the diamond, whose dirty cone is itself and [main] whichever
   the seed picks. *)
let schedule (rng : Random.State.t) ~(slice : float) ~(n : int) : request list =
  let rec go id t acc =
    let t = t -. (log (1.0 -. Random.State.float rng 1.0) /. rate) in
    if t >= slice then List.rev acc
    else
      let conn = Random.State.int rng 2 in
      let edit =
        if id mod edit_every = edit_every - 1 then Some (1 + Random.State.int rng (n - 2)) else None
      in
      go (id + 1) t ({ id; due = t; conn; edit } :: acc)
  in
  go 0 0.0 []

let edited_text (p : project) (i : int) ~(rev : int) : string =
  p.texts.(i) ^ Printf.sprintf "(define edit-rev %d)\n" rev

let status_count (c : Client.t) (k : string) : float =
  match Client.request c P.Status with
  | Ok j -> Util.member_num k (Util.field "status" j)
  | Error e -> failwith ("status: " ^ e)

(* Start the daemon and wait until it listens.  It is not this process's
   to leave behind: it is shut down, or killed, before the round ends. *)
let with_daemon (r : Round.t) ~(socket : string) ~(cache : string) (f : int -> 'a) : 'a =
  let ctx = r.ctx in
  let log =
    Unix.openfile (Filename.concat ctx.dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ log; null; out_w ])
      (fun () ->
        Unix.create_process ctx.liblang
          [| ctx.liblang; "serve"; "--socket"; socket; "--cache-dir"; cache |]
          null out_w log)
  in
  (* the parent kills whatever this line names if this process dies first *)
  Printf.printf "spawned %d\n%!" pid;
  let out = Unix.in_channel_of_descr out_r in
  let reaped = ref false in
  let reap ~wait =
    if not !reaped then begin
      let deadline = Util.now () +. wait in
      while (not !reaped) && Util.now () < deadline do
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> Unix.sleepf 0.01
        | _ -> reaped := true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Util.waitpid_no_eintr pid);
        reaped := true
      end
    end
  in
  Fun.protect
    ~finally:(fun () ->
      reap ~wait:0.0;
      close_in_noerr out)
    (fun () ->
      (* its first line on stdout says it is listening *)
      (match Spans.span "startup" (fun () -> In_channel.input_line out) with
      | Some l when String.starts_with ~prefix:"liblang server: listening" l -> ()
      | _ -> failwith "the daemon did not start");
      let v = f pid in
      reap ~wait:10.0;
      v)

let round ~(replay : bool) (r : Round.t) : unit =
  let ctx = r.ctx in
  let n, depth = size ~smoke:ctx.smoke in
  let projects =
    Array.init 2 (fun k ->
        let dir = Filename.concat ctx.dir (Printf.sprintf "p%d" k) in
        let root, sum = Genproj.generate ~dir ~shape:Genproj.Diamond ~n ~depth () in
        let files = Array.init n (fun i -> Filename.concat dir (Genproj.file_of i)) in
        { root; want = string_of_int sum; files; texts = Array.map Util.read_file files })
  in
  let cache = Filename.concat ctx.dir "cache" in
  (* relative to the working directory, which the daemon shares: a unix
     socket path is limited to about 100 bytes *)
  let socket = Util.relative (Filename.concat ctx.dir "d.sock") in
  with_daemon r ~socket ~cache @@ fun pid ->
  let conns =
    Array.map
      (fun _ -> match Client.connect socket with Ok c -> c | Error e -> failwith e)
      projects
  in
  Fun.protect ~finally:(fun () -> Array.iter Client.close conns) @@ fun () ->
  (* prime: each session compiles its project cold, so later runs are warm *)
  Array.iteri
    (fun k c ->
      let run = P.Run { path = projects.(k).root; fuel = None } in
      match Spans.span "server" (fun () -> Client.request c run) with
      | Ok j when Client.ok_of j && Client.output_of j = projects.(k).want -> ()
      | Ok j -> failwith ("prime: " ^ Option.value ~default:(Client.output_of j) (Client.error_of j))
      | Error e -> failwith ("prime: " ^ e))
    conns;
  let compiles0 = status_count conns.(0) "compiles"
  and invalidated0 = status_count conns.(0) "invalidated" in
  Round.ready r;
  let sched = Array.of_list (schedule r.rng ~slice:ctx.slice ~n) in
  let pending = Array.map (fun _ -> Queue.create ()) conns in
  let prev_reply = Array.make 2 0.0 in
  let outstanding = ref 0 and next = ref 0 and max_late = ref 0.0 in
  let queue_s = ref 0.0 and latency_s = ref 0.0 and edits = ref 0 in
  let t_start = Util.now () in
  let due q = t_start +. q.due in
  let send (q : request) =
    let p = projects.(q.conn) in
    max_late := Float.max !max_late (Util.now () -. due q);
    Option.iter
      (fun i ->
        incr edits;
        Util.write_file_atomic p.files.(i) (edited_text p i ~rev:q.id))
      q.edit;
    match
      Spans.span "server" (fun () ->
          Client.send_with_id conns.(q.conn) ~id:(Util.int q.id) (P.Run { path = p.root; fuel = None }))
    with
    | Ok () ->
        Queue.push q pending.(q.conn);
        incr outstanding
    | Error e -> Round.op r ~kind:"send" ~cls:"send" ~ms:0.0 (Error e)
  in
  let receive k =
    let reply = Spans.span "server" (fun () -> Client.recv conns.(k)) in
    let t = Util.now () in
    let q = Queue.pop pending.(k) in
    decr outstanding;
    let latency = t -. due q in
    let service = t -. Float.max (due q) prev_reply.(k) in
    prev_reply.(k) <- t;
    queue_s := !queue_s +. (latency -. service);
    latency_s := !latency_s +. latency;
    let ok =
      match reply with
      | Ok j when Client.id_of j <> Util.int q.id -> Error "reply out of order"
      | Ok j when Client.ok_of j -> Round.expect ~want:projects.(k).want (Client.output_of j)
      | Ok j -> Error (Option.value ~default:"request failed" (Client.error_of j))
      | Error e -> Error e
    in
    let kind = if q.edit = None then "warm" else "edit" in
    Round.op r ~kind ~cls:kind ~ms:(1000.0 *. latency) ok
  in
  (* a reply later than this after the last send counts as lost *)
  let drain_s = 10.0 and spin_s = 0.002 in
  let lost = ref false in
  while (!next < Array.length sched || !outstanding > 0) && not !lost do
    let now = Util.now () in
    if !next < Array.length sched && due sched.(!next) <= now then begin
      send sched.(!next);
      incr next
    end
    else if !next >= Array.length sched && now > t_start +. ctx.slice +. drain_s then lost := true
    else begin
      let sending = !next < Array.length sched in
      let wake = if sending then due sched.(!next) else t_start +. ctx.slice +. drain_s in
      let fds =
        List.filter_map
          (fun k -> if Queue.is_empty pending.(k) then None else Some (conns.(k) : Client.t).fd)
          [ 0; 1 ]
      in
      let select timeout =
        match Unix.select fds [] [] (Float.max 0.0 timeout) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      (* sleep until shortly before the next send is due, then poll: waking
         a sleeping process can take milliseconds on a virtual machine *)
      let rec wait () =
        let left = wake -. Util.now () in
        if left <= 0.0 then []
        else
          match select (if sending then left -. spin_s else left) with [] -> wait () | r -> r
      in
      let readable = Spans.span (if !outstanding > 0 then "server" else "harness") wait in
      List.iter
        (fun fd -> receive (if fd = (conns.(0) : Client.t).fd then 0 else 1))
        readable
    end
  done;
  Array.iter
    (fun q ->
      Queue.iter (fun _ -> Round.op r ~kind:"lost" ~cls:"lost" ~ms:0.0 (Error "no reply")) q)
    pending;
  let per_edit k base = (status_count conns.(0) k -. base) /. float_of_int (max 1 !edits) in
  r.extra <-
    [
      ("server.compiles_per_edit", per_edit "compiles" compiles0);
      ("server.invalidated_per_edit", per_edit "invalidated" invalidated0);
      ("server.queue_pct", 100.0 *. !queue_s /. Float.max 1e-9 !latency_s);
      ("gen_late_ms", 1000.0 *. !max_late);
    ];
  r.rss_mb <- Util.vmhwm_mb pid;
  (match Client.request conns.(0) P.Shutdown with
  | Ok j when Client.ok_of j -> ()
  | _ -> Round.fail r "shutdown was not acknowledged");
  if replay then begin
    (* the same kind of edit, replayed in this process through the
       pipeline on the daemon's store: the daemon's own overhead is the
       difference *)
    let p = projects.(0) in
    Core.Compiled.reset_session ();
    ignore (Core.Prims.with_captured_output (fun () -> Pipeline.run_file ~cache_dir:cache p.root));
    for k = 1 to min 10 !edits do
      let i = Random.State.int r.rng n in
      Util.write_file p.files.(i) (edited_text p i ~rev:(-k));
      let (res, ms), c =
        Spans.program ~name:"inproc-edit" "compiled" (fun observe ->
            let t0 = Util.now () in
            ignore (Core.Compiled.Resolver.invalidate_changed ());
            let res =
              Core.Prims.with_captured_output (fun () ->
                  Pipeline.run_file ~observe ~cache_dir:cache p.root)
            in
            (res, 1000.0 *. (Util.now () -. t0)))
      in
      let ok =
        match res with
        | out, Ok _ -> Round.expect ~want:p.want out
        | _, Error ds -> Error (Round.diagnostics ds)
      in
      Round.op r ~counts:(Round.counts_of c) ~kind:"inproc-edit" ~cls:"inproc" ~ms ok
    done
  end
