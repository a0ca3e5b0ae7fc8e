(** [e2e.exe compare A.jsonl B.jsonl]: two sets of runs (written with
    [--record]), compared workload by workload and metric by metric.

    Run [i] of A is paired with run [i] of B; the sets should alternate
    which side runs first.  Each row gives both medians and quartiles and
    the change of the median, and a verdict:

    - [worse]: B's median is worse than A's by more than the metric's bound;
    - [better]: at least 10 pairs, B wins at least 9 in 10 of them (ties
      count for neither side), and the medians differ by more than A's
      interquartile distance;
    - [unresolved]: A's own spread is wider than the bound, and not every
      run of B beats every run of A;
    - [same]: none of these. *)

module Json = Liblang_core.Core.Json

type record = { workload : string; trace : bool; metrics : (string * float) list }

let load (file : string) : record list =
  Util.read_file file |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Json.parse line with
         | Error _ -> None
         | Ok j ->
             let result = Util.field "result" j in
             Some
               {
                 workload = Util.member_str "workload" j;
                 trace = Json.member "trace" j = Some (Json.Bool true);
                 metrics =
                   List.map
                     (fun (k, v) -> (k, Util.member_num "value" v))
                     (Util.member_obj "metrics" result);
               })

(* name -> (better, bound) from BENCHMARK.json, when it is at hand. *)
let declared () : (string * (string * float option)) list =
  match Json.parse (Util.read_file "BENCHMARK.json") with
  | exception Sys_error _ -> []
  | Error _ -> []
  | Ok j ->
      List.map
        (fun m ->
          ( Util.member_str "name" m,
            (Util.member_str "better" m, Option.bind (Json.member "bound" m) Json.to_num) ))
        (Util.member_arr "end_to_end" j @ Util.member_arr "per_layer" j)

let verdict ~lower ~bound (a : float list) (b : float list) : string =
  let ma = Stats.median a and mb = Stats.median b in
  let q1, q3 = Stats.quartiles a in
  let worse x y = if lower then x > y else x < y in
  let n = min (List.length a) (List.length b) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (first a) (first b) in
  let wins = List.length (List.filter (fun (x, y) -> worse x y) pairs) in
  let every_b_beats_a = List.for_all (fun y -> List.for_all (fun x -> worse x y) a) b in
  match bound with
  | Some bd when worse mb (if lower then ma *. (1.0 +. bd) else ma *. (1.0 -. bd)) -> "worse"
  | _ ->
      if List.length pairs >= 10 && 10 * wins >= 9 * List.length pairs && Float.abs (mb -. ma) > q3 -. q1
      then "better"
      else (
        match bound with
        | Some bd when (q3 -. q1) /. ma > bd && not every_b_beats_a -> "unresolved"
        | _ -> "same")

let main (fa : string) (fb : string) : unit =
  let a = load fa and b = load fb and decl = declared () in
  let keys = List.sort_uniq compare (List.map (fun r -> (r.workload, r.trace)) a) in
  Printf.printf "%-9s %-30s %12s %12s %12s %12s %12s %12s %8s %4s  %s\n" "workload" "metric" "A.median"
    "A.q1" "A.q3" "B.median" "B.q1" "B.q3" "delta%" "n" "verdict";
  List.iter
    (fun (w, trace) ->
      let of_set set = List.filter (fun r -> r.workload = w && r.trace = trace) set in
      let ra = of_set a and rb = of_set b in
      match ra with
      | [] -> ()
      | r0 :: _ ->
          List.iter
            (fun (m, _) ->
              let values rs = List.filter_map (fun r -> List.assoc_opt m r.metrics) rs in
              let va = values ra and vb = values rb in
              if vb <> [] then begin
                let better, bound = Option.value ~default:("lower", None) (List.assoc_opt m decl) in
                let ma = Stats.median va and mb = Stats.median vb in
                let qa1, qa3 = Stats.quartiles va and qb1, qb3 = Stats.quartiles vb in
                Printf.printf "%-9s %-30s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+8.2f %4d  %s\n" w m
                  ma qa1 qa3 mb qb1 qb3
                  (100.0 *. (mb -. ma) /. ma)
                  (min (List.length va) (List.length vb))
                  (verdict ~lower:(better <> "higher") ~bound va vb)
              end)
            r0.metrics)
    keys
