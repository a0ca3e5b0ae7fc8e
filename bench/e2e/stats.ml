(** Order statistics over samples. *)

let sorted (l : float list) : float array =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(** The median, averaging the two middle values of an even count. *)
let median (l : float list) : float =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank percentile [p] (0-100). *)
let percentile (l : float list) (p : float) : float =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(** First and third quartile, as Python's [statistics.quantiles(l, n=4)]
    (the default, exclusive method) computes them. *)
let quartiles (l : float list) : float * float =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let geomean (l : float list) : float =
  match l with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

(** Group [(key, value)] pairs by key, keys in first-seen order. *)
let group (kvs : (string * 'a) list) : (string * 'a list) list =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some r -> r := v :: !r
      | None ->
          order := k :: !order;
          Hashtbl.add tbl k (ref [ v ]))
    kvs;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order
