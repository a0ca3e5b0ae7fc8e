(** Runtime tests: the numeric tower, value printing/equality, and
    primitives (safe and unsafe). *)

open Test_util
module Core = Liblang_core.Core
module Pipeline = Liblang_core.Pipeline

let tower =
  [
    t_ev "fixnum add" "(+ 1 2)" "3";
    t_ev "variadic add" "(+ 1 2 3 4)" "10";
    t_ev "add identity" "(+)" "0";
    t_ev "mul identity" "(*)" "1";
    t_ev "unary minus" "(- 5)" "-5";
    t_ev "unary div" "(/ 4)" "0.25";
    t_ev "mixed int float" "(+ 1 2.5)" "3.5";
    t_ev "float mul" "(* 1.5 2.0)" "3.0";
    t_ev "int div exact" "(/ 10 2)" "5";
    t_ev "int div inexact" "(/ 10 4)" "2.5";
    t_ev "float div" "(/ 1.0 8.0)" "0.125";
    t_ev "complex add" "(+ 1.0+2.0i 3.0+4.0i)" "4.0+6.0i";
    t_ev "complex mul" "(* 0.0+1.0i 0.0+1.0i)" "-1.0+0.0i";
    t_ev "complex div" "(/ 1.0+0.0i 0.0+1.0i)" "0.0-1.0i";
    t_ev "int plus complex" "(+ 1 1.0+1.0i)" "2.0+1.0i";
    t_ev "quotient" "(quotient 17 5)" "3";
    t_ev "remainder" "(remainder 17 5)" "2";
    t_ev "remainder negative" "(remainder -7 2)" "-1";
    t_ev "modulo negative" "(modulo -7 2)" "1";
    t_ev "modulo both negative" "(modulo -7 -2)" "-1";
    t_ev "gcd" "(gcd 12 18)" "6";
    t_ev "expt int" "(expt 2 10)" "1024";
    t_ev "expt float" "(expt 2.0 0.5)" (ev "(sqrt 2.0)");
    t_ev "abs" "(list (abs -3) (abs 3.5) (abs -3.5))" "(3 3.5 3.5)";
    t_ev "min max" "(list (min 3 1 2) (max 3 1 2) (min 1.5 2) (max 1 1.5))" "(1 3 1.5 1.5)";
    t_ev "add1 sub1" "(list (add1 1) (sub1 1) (add1 1.5))" "(2 0 2.5)";
    t_ev "sqrt perfect" "(sqrt 16)" "4";
    t_ev "sqrt imperfect" "(sqrt 2)" (ev "(sqrt 2.0)");
    t_ev "sqrt negative is complex" "(sqrt -4)" "0.0+2.0i";
    t_ev "sqrt negative float" "(sqrt -1.0)" "0.0+1.0i";
    t_ev "magnitude complex" "(magnitude 3.0+4.0i)" "5.0";
    t_ev "magnitude real" "(magnitude -7)" "7";
    t_ev "real-part" "(real-part 3.0+4.0i)" "3.0";
    t_ev "imag-part" "(imag-part 3.0+4.0i)" "4.0";
    t_ev "imag-part of int" "(imag-part 5)" "0";
    t_ev "make-rectangular" "(make-rectangular 1 2)" "1.0+2.0i";
    t_ev "make-polar" "(magnitude (make-polar 2.0 1.0))" "2.0";
    t_ev "exact->inexact" "(exact->inexact 3)" "3.0";
    t_ev "inexact->exact" "(inexact->exact 3.0)" "3";
    t_ev "floor ceiling" "(list (floor 2.5) (ceiling 2.5) (floor -2.5) (ceiling -2.5))"
      "(2.0 3.0 -3.0 -2.0)";
    t_ev "round is banker's" "(list (round 2.5) (round 3.5) (round 2.4))" "(2.0 4.0 2.0)";
    t_ev "truncate" "(list (truncate 2.7) (truncate -2.7))" "(2.0 -2.0)";
    t_ev "floor of int is int" "(floor 5)" "5";
    t_ev "zero?" "(list (zero? 0) (zero? 0.0) (zero? 1) (zero? 0.0+0.0i))" "(#t #t #f #t)";
    t_ev "even odd" "(list (even? 4) (odd? 4) (even? -3) (odd? -3))" "(#t #f #f #t)";
    t_ev "positive negative" "(list (positive? 2) (negative? 2) (negative? -2.5))" "(#t #f #t)";
    t_ev "comparison chain" "(list (< 1 2 3) (< 1 3 2) (<= 1 1 2) (> 3 2 1) (>= 2 2 1))"
      "(#t #f #t #t #t)";
    t_ev "numeric eq across tower" "(list (= 1 1.0) (= 1.0+0.0i 1) (= 1 2))" "(#t #t #f)";
    t_ev "atan two args" "(atan 1.0 1.0)" (ev "(atan 1.0 1.0)");
    t_ev "predicates" "(list (number? 1) (number? 'a) (integer? 2.0) (integer? 2.5)
                             (exact-integer? 2.0) (flonum? 2.0) (real? 1.0+2.0i) (complex? 1))"
      "(#t #f #t #f #f #t #f #t)";
  ]

let tower_errors =
  [
    t_ev_err "add non-number" "(+ 1 'a)" "expects a number";
    t_ev_err "division by zero" "(/ 1 0)" "division by zero";
    t_ev_err "quotient by zero" "(quotient 1 0)" "division by zero";
    t_ev_err "compare complex" "(< 1.0+2.0i 3)" "expects real";
    t_ev_err "even? on float" "(even? 2.5)" "even?";
    t_ev_err "inexact->exact non-integral" "(inexact->exact 2.5)" "no exact rationals";
  ]

let unsafe =
  [
    t_ev "unsafe-fl+" "(unsafe-fl+ 1.5 2.25)" "3.75";
    t_ev "unsafe-fl nest" "(unsafe-fl* (unsafe-fl+ 1.0 2.0) (unsafe-fl- 5.0 1.0))" "12.0";
    t_ev "unsafe-fl/" "(unsafe-fl/ 1.0 4.0)" "0.25";
    t_ev "unsafe comparisons"
      "(list (unsafe-fl< 1.0 2.0) (unsafe-fl> 1.0 2.0) (unsafe-fl<= 2.0 2.0) (unsafe-fl>= 2.0 3.0) (unsafe-fl= 2.0 2.0))"
      "(#t #f #t #f #t)";
    t_ev "unsafe-flsqrt" "(unsafe-flsqrt 9.0)" "3.0";
    t_ev "unsafe-flabs" "(unsafe-flabs -2.5)" "2.5";
    t_ev "unsafe-flmin/max" "(list (unsafe-flmin 1.0 2.0) (unsafe-flmax 1.0 2.0))" "(1.0 2.0)";
    t_ev "unsafe-flfloor" "(unsafe-flfloor 2.7)" "2.0";
    t_ev "unsafe-fx ops" "(list (unsafe-fx+ 2 3) (unsafe-fx* 2 3) (unsafe-fx< 2 3))" "(5 6 #t)";
    t_ev "unsafe-fx->fl" "(unsafe-fx->fl 7)" "7.0";
    t_ev "unsafe-c+" "(unsafe-c+ 1.0+2.0i 3.0+4.0i)" "4.0+6.0i";
    t_ev "unsafe-c*" "(unsafe-c* 0.0+1.0i 0.0+1.0i)" "-1.0+0.0i";
    t_ev "unsafe-c/ agrees with /" "(unsafe-c/ 5.0+3.0i 2.0-1.0i)" (ev "(/ 5.0+3.0i 2.0-1.0i)");
    t_ev "unsafe-magnitude" "(unsafe-magnitude 3.0+4.0i)" "5.0";
    t_ev "unsafe-real/imag-part"
      "(list (unsafe-real-part 1.0+2.0i) (unsafe-imag-part 1.0+2.0i))" "(1.0 2.0)";
    t_ev "unsafe-make-rectangular" "(unsafe-make-rectangular 1.0 2.0)" "1.0+2.0i";
    t_ev "unsafe-car/cdr" "(list (unsafe-car '(1 2)) (unsafe-cdr '(1 2)))" "(1 (2))";
    t_ev "unsafe-vector ops"
      "(let ([v (vector 1 2 3)]) (unsafe-vector-set! v 0 9) (list (unsafe-vector-ref v 0) (unsafe-vector-length v)))"
      "(9 3)";
    t_ev "unsafe coerces int leaves" "(unsafe-fl+ 1 2.5)" "3.5";
    t_ev_err "unsafe-car off-type raises (not UB)" "(unsafe-car 5)" "unsafe-car";
    t_ev_err "unsafe-fl off-type raises" "(unsafe-fl+ \"x\" 1.0)" "unsafe";
  ]

let lists =
  [
    t_ev "cons car cdr" "(let ([p (cons 1 2)]) (list (car p) (cdr p)))" "(1 2)";
    t_ev "list" "(list 1 2 3)" "(1 2 3)";
    t_ev "list*" "(list* 1 2 '(3 4))" "(1 2 3 4)";
    t_ev "caar etc" "(list (cadr '(1 2 3)) (caddr '(1 2 3)) (cddr '(1 2 3)) (caar '((9))))"
      "(2 3 (3) 9)";
    t_ev "first second third rest" "(list (first '(1 2 3)) (second '(1 2 3)) (third '(1 2 3)) (rest '(1 2 3)))"
      "(1 2 3 (2 3))";
    t_ev "length" "(length '(a b c))" "3";
    t_ev "length empty" "(length '())" "0";
    t_ev "append" "(append '(1 2) '(3) '() '(4 5))" "(1 2 3 4 5)";
    t_ev "append single improper tail" "(append '(1) 2)" "(1 . 2)";
    t_ev "reverse" "(reverse '(1 2 3))" "(3 2 1)";
    t_ev "list-ref" "(list-ref '(a b c) 1)" "b";
    t_ev "list-tail" "(list-tail '(a b c d) 2)" "(c d)";
    t_ev "member found" "(member 2 '(1 2 3))" "(2 3)";
    t_ev "member missing" "(member 9 '(1 2 3))" "#f";
    t_ev "member structural" "(member '(a) '((a) (b)))" "((a) (b))";
    t_ev "memq symbols" "(memq 'b '(a b c))" "(b c)";
    t_ev "memv numbers" "(memv 2 '(1 2 3))" "(2 3)";
    t_ev "assoc" "(assoc 'b '((a 1) (b 2)))" "(b 2)";
    t_ev "assq missing" "(assq 'z '((a 1)))" "#f";
    t_ev "last" "(last '(1 2 3))" "3";
    t_ev "set-car!" "(let ([p (cons 1 2)]) (set-car! p 9) p)" "(9 . 2)";
    t_ev "set-cdr!" "(let ([p (cons 1 2)]) (set-cdr! p '(3)) p)" "(1 3)";
    t_ev "pair predicates" "(list (pair? '(1)) (pair? '()) (null? '()) (null? '(1)) (list? '(1 2)) (list? '(1 . 2)))"
      "(#t #f #t #f #t #f)";
    t_ev_err "car of empty" "(car '())" "expects a pair";
    t_ev_err "length of improper" "(length '(1 . 2))" "proper list";
  ]

let higher_order =
  [
    t_ev "map" "(map add1 '(1 2 3))" "(2 3 4)";
    t_ev "map2" "(map + '(1 2) '(10 20))" "(11 22)";
    t_ev "for-each order" "(let ([acc '()]) (for-each (lambda (x) (set! acc (cons x acc))) '(1 2 3)) acc)"
      "(3 2 1)";
    t_ev "filter" "(filter even? '(1 2 3 4 5 6))" "(2 4 6)";
    t_ev "foldl" "(foldl cons '() '(1 2 3))" "(3 2 1)";
    t_ev "foldr" "(foldr cons '() '(1 2 3))" "(1 2 3)";
    t_ev "foldl subtract order" "(foldl - 0 '(1 2 3))" "2";
    t_ev "andmap" "(list (andmap even? '(2 4)) (andmap even? '(2 3)) (andmap even? '()))" "(#t #f #t)";
    t_ev "ormap" "(list (ormap even? '(1 3)) (ormap even? '(1 2)))" "(#f #t)";
    t_ev "sort" "(sort '(3 1 4 1 5 9 2 6) <)" "(1 1 2 3 4 5 6 9)";
    t_ev "sort stable" "(sort '((1 a) (0 b) (1 c)) (lambda (x y) (< (car x) (car y))))"
      "((0 b) (1 a) (1 c))";
    t_ev "build-list" "(build-list 5 (lambda (i) (* i i)))" "(0 1 4 9 16)";
    t_ev "apply" "(apply + '(1 2 3))" "6";
    t_ev "apply mixed" "(apply list 1 2 '(3 4))" "(1 2 3 4)";
    t_ev "values single" "(values 42)" "42";
    t_ev "call-with-values" "(call-with-values (lambda () (values 1 2 3)) list)" "(1 2 3)";
    t_ev "call-with-values single" "(call-with-values (lambda () 7) add1)" "8";
    t_ev "procedure?" "(list (procedure? car) (procedure? (lambda (x) x)) (procedure? 5))"
      "(#t #t #f)";
  ]

let vectors_strings =
  [
    t_ev "vector literal" "(vector 1 2 3)" "#(1 2 3)";
    t_ev "make-vector" "(make-vector 3 'x)" "#(x x x)";
    t_ev "make-vector default" "(make-vector 2)" "#(0 0)";
    t_ev "vector-ref/set" "(let ([v (vector 1 2)]) (vector-set! v 1 9) (vector-ref v 1))" "9";
    t_ev "vector-length" "(vector-length (vector 1 2 3))" "3";
    t_ev "vector<->list" "(list (vector->list #(1 2)) (list->vector '(3 4)))" "((1 2) #(3 4))";
    t_ev "vector-fill!" "(let ([v (make-vector 3 0)]) (vector-fill! v 7) v)" "#(7 7 7)";
    t_ev "vector-map" "(vector-map add1 #(1 2))" "#(2 3)";
    t_ev "build-vector" "(build-vector 3 (lambda (i) (* 2 i)))" "#(0 2 4)";
    t_ev "vector-copy is fresh" "(let* ([v (vector 1)] [w (vector-copy v)]) (vector-set! w 0 9) (list v w))"
      "(#(1) #(9))";
    t_ev_err "vector-ref out of range" "(vector-ref (vector 1) 5)" "out of range";
    t_ev_err "vector-ref negative" "(vector-ref (vector 1) -1)" "out of range";
    t_ev "string-length" "(string-length \"hello\")" "5";
    t_ev "string-ref" "(string-ref \"abc\" 1)" "#\\b";
    t_ev "substring" "(list (substring \"hello\" 1 3) (substring \"hello\" 2))" "(\"el\" \"llo\")";
    t_ev "string-append" "(string-append \"a\" \"b\" \"c\")" "\"abc\"";
    t_ev "string mutation" "(let ([s (make-string 3 #\\a)]) (string-set! s 1 #\\b) s)" "\"aba\"";
    t_ev "string<->symbol" "(list (string->symbol \"hi\") (symbol->string 'hi))" "(hi \"hi\")";
    t_ev "string<->list" "(list (string->list \"ab\") (list->string '(#\\c #\\d)))"
      "((#\\a #\\b) \"cd\")";
    t_ev "string case" "(list (string-upcase \"aBc\") (string-downcase \"aBc\"))" "(\"ABC\" \"abc\")";
    t_ev "string=? and <?" "(list (string=? \"a\" \"a\") (string<? \"a\" \"b\") (string<? \"b\" \"a\"))"
      "(#t #t #f)";
    t_ev "string->number" "(list (string->number \"42\") (string->number \"2.5\") (string->number \"nope\"))"
      "(42 2.5 #f)";
    t_ev "number->string" "(list (number->string 42) (number->string 2.5))" "(\"42\" \"2.5\")";
    t_ev "char ops" "(list (char->integer #\\A) (integer->char 97) (char=? #\\a #\\a) (char<? #\\a #\\b))"
      "(65 #\\a #t #t)";
    t_ev "char classes" "(list (char-alphabetic? #\\a) (char-alphabetic? #\\1) (char-numeric? #\\7))"
      "(#t #f #t)";
    t_ev "gensym distinct" "(eq? (gensym) (gensym))" "#f";
  ]

let equality_misc =
  [
    t_ev "eq? on symbols" "(eq? 'a 'a)" "#t";
    t_ev "eq? on fixnums" "(eq? 400 400)" "#t";
    t_ev "eqv? on floats" "(eqv? 1.5 1.5)" "#t";
    t_ev "eq? on fresh pairs" "(eq? (cons 1 2) (cons 1 2))" "#f";
    t_ev "eq? same pair" "(let ([p (cons 1 2)]) (eq? p p))" "#t";
    t_ev "equal? structural" "(equal? '(1 (2 #(3))) '(1 (2 #(3))))" "#t";
    t_ev "equal? strings" "(equal? \"ab\" \"ab\")" "#t";
    t_ev "equal? different" "(equal? '(1 2) '(1 3))" "#f";
    t_ev "not" "(list (not #f) (not 0) (not '()))" "(#t #f #f)";
    t_ev "truthiness" "(list (if 0 'y 'n) (if \"\" 'y 'n) (if '() 'y 'n) (if #f 'y 'n))" "(y y y n)";
    t_ev "boolean?" "(list (boolean? #t) (boolean? 0))" "(#t #f)";
    t_ev "void" "(void? (void))" "#t";
    t_ev "box" "(let ([b (box 1)]) (set-box! b 2) (list (unbox b) (box? b)))" "(2 #t)";
    t_ev "identity" "(identity 'x)" "x";
    t_ev "hash" "(let ([h (make-hash)]) (hash-set! h 'a 1) (list (hash-ref h 'a) (hash-ref h 'b 0) (hash-has-key? h 'a) (hash-count h)))"
      "(1 0 #t 1)";
    t_ev_err "hash-ref missing" "(hash-ref (make-hash) 'k)" "no value found";
    t_ev_err "error primitive" "(error \"boom\" 42)" "boom 42";
    t_ev "format" "(format \"~a+~s=~a~~\" 1 \"x\" 'y)" "\"1+\\\"x\\\"=y~\"";
    t_ev_err "format too few args" "(format \"~a ~a\" 1)" "too few";
    t_ev_err "format too many args" "(format \"~a\" 1 2)" "too many";
  ]

(* One off-type text per unsafe primitive, whichever path compiled the
   call: the fused closures (a direct call), the primitive itself
   ([apply]), its fast path (unboxing off), and the VM.  The text names
   the leftmost off-type operand. *)
let off_type name args expect =
  Alcotest.test_case ("one off-type text: " ^ name) `Quick (fun () ->
      let call = Printf.sprintf "(%s %s)" name args in
      let with_unboxing b f =
        let saved = !Core.Interp.unboxing_enabled in
        Core.Interp.unboxing_enabled := b;
        Fun.protect ~finally:(fun () -> Core.Interp.unboxing_enabled := saved) f
      in
      check_s (name ^ ": direct") expect (ev_err call);
      check_s (name ^ ": apply") expect
        (ev_err (Printf.sprintf "(apply %s (list %s))" name args));
      check_s (name ^ ": unboxing off") expect (with_unboxing false (fun () -> ev_err call));
      check_s (name ^ ": vm") expect
        (Pipeline.with_engine Pipeline.Vm (fun () -> ev_err call)))

let off_type_texts =
  [
    off_type "unsafe-fl+" "'a 'b" "runtime: unsafe flonum operation: given a (undefined behavior off-type)";
    off_type "unsafe-fl<" "1.0 'b" "runtime: unsafe flonum operation: given b (undefined behavior off-type)";
    off_type "unsafe-fx->fl" "'a"
      "runtime: unsafe-fx->fl: expects a fixnum, given a (undefined behavior off-type)";
    off_type "unsafe-car" "5" "runtime: unsafe-car: expects a pair, given 5 (undefined behavior off-type)";
    off_type "unsafe-c+" "'a 'b"
      "runtime: unsafe float-complex operation: given a (undefined behavior off-type)";
  ]

let suite =
  tower @ tower_errors @ unsafe @ off_type_texts @ lists @ higher_order @ vectors_strings
  @ equality_misc
