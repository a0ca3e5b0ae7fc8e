(** The benchmark's fixed inputs: the Fig. 6–9 programs and the hygiene
    stress programs of [bench/programs.ml], pinned by the MD5s in
    [expected/sources.md5], and their reference outputs in
    [expected/outputs.txt]. *)

module Core = Liblang_core.Core

type source = {
  name : string;  (** [<variant>/<program>] *)
  program : string;
  typed : bool;
  text : string;  (** the whole module, [#lang] line included *)
}

let source_of (p : Programs.t) ~typed : source =
  {
    name = (if typed then "typed/" else "untyped/") ^ p.Programs.name;
    program = p.Programs.name;
    typed;
    text =
      (if typed then "#lang typed/racket\n" ^ p.Programs.typed
       else "#lang racket\n" ^ p.Programs.untyped);
  }

let is_stress (p : Programs.t) = String.equal p.Programs.figure "expand"

(** The 24 Fig. 6–9 programs, untyped and typed: 48 modules. *)
let kernels : source list =
  List.concat_map
    (fun p -> if is_stress p then [] else [ source_of p ~typed:false; source_of p ~typed:true ])
    Programs.all

(** Every source the front end compiles: the 48 kernel modules and the 3
    untyped hygiene stress programs. *)
let sources : source list =
  kernels
  @ List.filter_map
      (fun p -> if is_stress p then Some (source_of p ~typed:false) else None)
      Programs.all

let lines (s : string) : string list = List.filter (( <> ) "") (String.split_on_char '\n' s)

let split_tab (l : string) : string * string =
  match String.index_opt l '\t' with
  | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
  | None -> (l, "")

let outputs : (string * string) list = List.map split_tab (lines Expected_data.outputs)

(** What [program] must print. *)
let expected (program : string) : string =
  match List.assoc_opt program outputs with
  | Some o -> o
  | None -> failwith ("no reference output for " ^ program)

let md5 (s : source) : string = Digest.to_hex (Digest.string s.text)

let md5_lines () : string list = List.map (fun s -> md5 s ^ "\t" ^ s.name) sources

(** Names of sources whose text no longer matches its pinned MD5. *)
let drifted () : string list =
  let pinned = List.map (fun l -> let d, n = split_tab l in (n, d)) (lines Expected_data.sources_md5) in
  List.filter_map
    (fun s ->
      match List.assoc_opt s.name pinned with
      | Some d when String.equal d (md5 s) -> None
      | _ -> Some s.name)
    sources
  @ List.filter_map
      (fun (n, _) -> if List.exists (fun s -> s.name = n) sources then None else Some n)
      pinned

(* What [src] prints when its module body runs on the AST-walking
   evaluator, which shares no code with the closure compiler or the VM. *)
let naive_output (src : source) : string =
  let m = Core.Modsys.declare ~name:("reference/" ^ src.name) src.text in
  let saved = !Core.Modsys.evaluator in
  Core.Modsys.evaluator := Core.Naive.eval_top;
  Fun.protect
    ~finally:(fun () -> Core.Modsys.evaluator := saved)
    (fun () -> fst (Core.Prims.with_captured_output (fun () -> Core.Modsys.instantiate m)))

(** Regenerate [dir]/outputs.txt and [dir]/sources.md5.  Each program's
    reference is its untyped module on the naive evaluator; its typed
    module must agree there, and a stress program must also print its
    closed form. *)
let write_expected (dir : string) : unit =
  let outputs =
    List.filter_map
      (fun (p : Programs.t) ->
        let untyped = source_of p ~typed:false in
        let out = naive_output untyped in
        let check what want =
          if not (String.equal out want) then
            failwith (Printf.sprintf "%s: naive untyped prints %S but %s prints %S" p.name out what want)
        in
        if is_stress p then check "the closed form" (List.assoc p Programs.expand_family)
        else check "naive typed" (naive_output (source_of p ~typed:true));
        Some (p.Programs.name ^ "\t" ^ out))
      Programs.all
  in
  Util.write_file (Filename.concat dir "outputs.txt") (String.concat "\n" outputs ^ "\n");
  Util.write_file (Filename.concat dir "sources.md5") (String.concat "\n" (md5_lines ()) ^ "\n")
