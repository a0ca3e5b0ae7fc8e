(** Evaluator semantics: binding forms, closures, tail calls, mutation,
    control flow — under both the closure-compiling backend and the naive
    AST walker (they must agree). *)

open Liblang_core.Core
open Test_util

let core_semantics =
  [
    t_ev "lambda id" "((lambda (x) x) 42)" "42";
    t_ev "lambda multi" "((lambda (a b c) (list c b a)) 1 2 3)" "(3 2 1)";
    t_ev "lambda rest only" "((lambda args args) 1 2 3)" "(1 2 3)";
    t_ev "lambda fixed+rest" "((lambda (a . rest) (cons rest a)) 1 2 3)" "((2 3) . 1)";
    t_ev "lambda rest empty" "((lambda (a . rest) rest) 1)" "()";
    t_ev "lexical scope" "(let ([x 1]) (let ([f (lambda () x)]) (let ([x 2]) (f))))" "1";
    t_ev "closure captures" "(let ([mk (lambda (n) (lambda (x) (+ x n)))]) ((mk 10) 5))" "15";
    t_ev "shadowing" "(let ([x 1]) (let ([x 2]) x))" "2";
    t_ev "shadowing restores" "(let ([x 1]) (let ([x 2]) (void)) x)" "1";
    t_ev "let is parallel" "(let ([x 1]) (let ([x 2] [y x]) y))" "1";
    t_ev "let* is sequential" "(let ([x 1]) (let* ([x 2] [y x]) y))" "2";
    t_ev "letrec mutual"
      "(letrec ([even? (lambda (n) (if (= n 0) #t (odd? (- n 1))))]
                [odd? (lambda (n) (if (= n 0) #f (even? (- n 1))))])
         (list (even? 10) (odd? 10)))"
      "(#t #f)";
    t_ev "named let" "(let loop ([i 0] [acc 1]) (if (= i 5) acc (loop (+ i 1) (* acc 2))))" "32";
    t_ev "if" "(list (if #t 1 2) (if #f 1 2))" "(1 2)";
    t_ev "begin sequencing" "(let ([b (box 0)]) (begin (set-box! b 1) (set-box! b (+ (unbox b) 10)) (unbox b)))"
      "11";
    t_ev "begin0" "(let ([b (box 1)]) (begin0 (unbox b) (set-box! b 99)))" "1";
    t_ev "set! local" "(let ([x 1]) (set! x 41) (+ x 1))" "42";
    t_ev "set! captured" "(let ([x 0]) (let ([inc (lambda () (set! x (+ x 1)))]) (inc) (inc) x))" "2";
    t_ev "when true" "(when (= 1 1) 'a 'b)" "b";
    t_ev "when false is void" "(void? (when #f 'x))" "#t";
    t_ev "unless" "(unless (= 1 2) 'ran)" "ran";
    t_ev "cond arrow" "(cond [(assq 'b '((a 1) (b 2))) => cadr] [else 'no])" "2";
    t_ev "cond test-only clause" "(cond [#f] [42] [else 'no])" "42";
    t_ev "cond empty" "(void? (cond))" "#t";
    t_ev "case else" "(case 99 [(1) 'one] [else 'other])" "other";
    t_ev "case multi-datum" "(case 5 [(2 3 5 7) 'prime] [else 'no])" "prime";
    t_ev "and short-circuits" "(let ([b (box 'untouched)]) (and #f (set-box! b 'touched)) (unbox b))"
      "untouched";
    t_ev "or short-circuits" "(let ([b (box 'untouched)]) (or 1 (set-box! b 'touched)) (unbox b))"
      "untouched";
    t_ev "and returns last" "(and 1 2 3)" "3";
    t_ev "or returns first truthy" "(or #f 2 3)" "2";
    t_ev "quote self" "'(1 \"a\" #\\b 2.5 #(v))" "(1 \"a\" #\\b 2.5 #(v))";
    t_ev "quote is a value" "(car '(1 2))" "1";
  ]

let errors =
  [
    t_ev_err "apply non-procedure" "(1 2)" "not a procedure";
    t_ev_err "arity too few" "((lambda (a b) a) 1)" "arity mismatch";
    t_ev_err "arity too many" "((lambda (a) a) 1 2)" "arity mismatch";
    t_ev_err "rest arity minimum" "((lambda (a b . r) r) 1)" "arity mismatch";
    t_ev_err "unbound variable" "(this-is-not-bound)" "unbound";
    t_err "reference before definition" "#lang racket\n(define (f) g)\n(f)\n(define g 1)"
      "cannot reference before definition";
  ]

(* Deep tail recursion must run in constant stack under both evaluators. *)
let tail_calls =
  let loop_src = "(let loop ([i 0]) (if (= i 3000000) 'done (loop (+ i 1))))" in
  let mutual =
    "(letrec ([a (lambda (n) (if (= n 0) 'done (b (- n 1))))]\n\
    \          [b (lambda (n) (a n))])\n\
    \   (a 2000000))"
  in
  [
    t_ev "tail loop 3e6 iterations" loop_src "done";
    t_ev "mutual tail recursion" mutual "done";
    t_ev "tail call through cond" "(let loop ([i 0]) (cond [(= i 1000000) 'done] [else (loop (+ i 1))]))"
      "done";
    t_ev "tail call through when/begin"
      "(let ([b (box 0)]) (let loop ([i 0]) (if (= i 500000) (unbox b) (begin (set-box! b i) (loop (+ i 1))))))"
      "499999";
  ]

(* The naive backend computes the same answers (used as the comparison
   series in Fig. 6/8). *)
let backends_agree =
  let progs =
    [
      ("closures", "(display ((let ([n 10]) (lambda (x) (* n x))) 4))");
      ("letrec", "(display (letrec ([f (lambda (n) (if (= n 0) 1 (* n (f (- n 1)))))]) (f 6)))");
      ("floats", "(display (+ (* 1.5 2.0) (sqrt 16.0)))");
      ("lists", "(display (map (lambda (x) (* x x)) '(1 2 3)))");
      ("mutation", "(define b (box 0)) (set-box! b 42) (display (unbox b))");
      ("varargs", "(display (apply + 1 2 '(3 4)))");
    ]
  in
  List.map
    (fun (name, body) ->
      Alcotest.test_case ("naive agrees: " ^ name) `Quick (fun () ->
          ignore (succeeds (engines_agree Matrix.naive ("#lang racket\n" ^ body)))))
    progs

(* Both evaluators spend fuel on the same applications, so a loop that
   prints a line per iteration and outruns its budget prints the same
   lines and ends in the same diagnostic under either.  Its [show] takes
   a rest argument, which the interpreter applies through its generic
   path. *)
let same_fuel =
  Alcotest.test_case "naive spends fuel where the interpreter does" `Quick (fun () ->
      let loop =
        "(define (show . xs) (for-each display xs) (newline))\n\
         (let loop ([i 0]) (when (< i 100) (show i) (loop (+ i 1))))"
      in
      match engines_agree ~fuel:300 Matrix.naive ("#lang racket\n" ^ loop ^ "\n") with
      | [ o ] ->
          let lines = List.length (String.split_on_char '\n' o.out) - 1 in
          check_b "some lines, not all 100" true (lines > 0 && lines < 100);
          check_b "then runs out of fuel" true (contains o.err "exhausted its fuel budget")
      | _ -> Alcotest.fail "one outcome per program")

(* The fused unsafe-float closures must agree with the generic operations
   on every operand shape (constants, locals at several depths, computed
   subexpressions). *)
let fused_shapes =
  let mk name unsafe generic =
    Alcotest.test_case ("fused = generic: " ^ name) `Quick (fun () ->
        check_s name (ev generic) (ev unsafe))
  in
  [
    mk "const/const" "(unsafe-fl+ 1.5 2.5)" "(+ 1.5 2.5)";
    mk "local0/const" "(let ([x 3.5]) (unsafe-fl* x 2.0))" "(let ([x 3.5]) (* x 2.0))";
    mk "const/local0" "(let ([x 3.5]) (unsafe-fl- 10.0 x))" "(let ([x 3.5]) (- 10.0 x))";
    mk "local0/local0" "(let ([x 3.0] [y 4.0]) (unsafe-fl/ x y))" "(let ([x 3.0] [y 4.0]) (/ x y))";
    mk "local1/local0" "(let ([x 2.0]) (let ([y 3.0]) (unsafe-fl+ x y)))"
      "(let ([x 2.0]) (let ([y 3.0]) (+ x y)))";
    mk "deep local" "(let ([a 1.0]) (let ([b 2.0]) (let ([c 3.0]) (let ([d 4.0]) (unsafe-fl+ a d)))))"
      "(let ([a 1.0]) (let ([b 2.0]) (let ([c 3.0]) (let ([d 4.0]) (+ a d)))))";
    mk "computed operands" "(unsafe-fl+ ((lambda () 1.5)) ((lambda () 2.0)))"
      "(+ ((lambda () 1.5)) ((lambda () 2.0)))";
    mk "nested unsafe tree" "(unsafe-fl* (unsafe-fl+ 1.0 2.0) (unsafe-flsqrt 16.0))"
      "(* (+ 1.0 2.0) (sqrt 16.0))";
    mk "unary shapes" "(let ([x 2.25]) (list (unsafe-flsqrt x) (unsafe-flabs -3.0) (unsafe-flsin 0.0)))"
      "(let ([x 2.25]) (list (sqrt x) (abs -3.0) (sin 0.0)))";
    mk "cmp shapes" "(let ([x 1.0]) (list (unsafe-fl< x 2.0) (unsafe-fl>= 3.0 x)))"
      "(let ([x 1.0]) (list (< x 2.0) (>= 3.0 x)))";
    mk "complex shapes" "(let ([z 1.0+2.0i]) (unsafe-c* z (unsafe-c+ z 1.0+0.0i)))"
      "(let ([z 1.0+2.0i]) (* z (+ z 1.0+0.0i)))";
    mk "complex via rect" "(unsafe-magnitude (unsafe-make-rectangular 3.0 4.0))"
      "(magnitude (make-rectangular 3.0 4.0))";
  ]

(* With the unboxing backend disabled (ablation), results are identical. *)
let unboxing_off =
  [
    Alcotest.test_case "unboxing off: same results" `Quick (fun () ->
        let src = "(unsafe-fl* (unsafe-fl+ 1.5 2.5) (unsafe-flsqrt 4.0))" in
        let on = ev src in
        Interp.unboxing_enabled := false;
        Fun.protect
          ~finally:(fun () -> Interp.unboxing_enabled := true)
          (fun () -> check_s "same" on (ev src)));
  ]

let suite =
  cleaning (core_semantics @ errors @ tail_calls @ backends_agree @ (same_fuel :: fused_shapes) @ unboxing_off)
