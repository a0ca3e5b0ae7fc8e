(** Benchmark programs: each comes in an untyped ([#lang racket]) and a
    typed ([#lang typed/racket]) variant, as in the paper's evaluation
    (§7.3).  The typed variants differ only in annotations and extra
    predicates, exactly as the paper describes.

    Programs end by displaying a checksum, so the harness can verify that
    every backend and variant computes the same result.  Sizes are scaled
    for this interpreter (the paper ran native code; see DESIGN.md). *)

type t = {
  name : string;
  figure : string;  (** fig6 | fig7 | fig8 | fig9 *)
  suite : string;   (** provenance label printed in the tables *)
  untyped : string; (** module body without the #lang line *)
  typed : string;
}

let b name figure suite untyped typed = { name; figure; suite; untyped; typed }

(* ------------------------------------------------------------------ *)
(* Figure 6: Gabriel & Larceny micro-benchmarks                        *)
(* ------------------------------------------------------------------ *)

let tak =
  b "tak" "fig6" "Gabriel"
    {|
(define (tak x y z)
  (if (not (< y x)) z
      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
(define (main)
  (let loop ([i 0] [acc 0])
    (if (= i 12) acc (loop (+ i 1) (+ acc (tak 18 12 6))))))
(display (main))
|}
    {|
(define (tak [x : Integer] [y : Integer] [z : Integer]) : Integer
  (if (not (< y x)) z
      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
(define (main) : Integer
  (let loop : Integer ([i : Integer 0] [acc : Integer 0])
    (if (= i 12) acc (loop (+ i 1) (+ acc (tak 18 12 6))))))
(display (main))
|}

let cpstak =
  b "cpstak" "fig6" "Gabriel"
    {|
(define (cps-tak x y z k)
  (if (not (< y x)) (k z)
      (cps-tak (- x 1) y z
        (lambda (v1)
          (cps-tak (- y 1) z x
            (lambda (v2)
              (cps-tak (- z 1) x y
                (lambda (v3) (cps-tak v1 v2 v3 k)))))))))
(define (main)
  (let loop ([i 0] [acc 0])
    (if (= i 12) acc (loop (+ i 1) (+ acc (cps-tak 18 12 6 (lambda (a) a)))))))
(display (main))
|}
    {|
(define (cps-tak [x : Integer] [y : Integer] [z : Integer]
                 [k : (Integer -> Integer)]) : Integer
  (if (not (< y x)) (k z)
      (cps-tak (- x 1) y z
        (lambda ([v1 : Integer])
          (cps-tak (- y 1) z x
            (lambda ([v2 : Integer])
              (cps-tak (- z 1) x y
                (lambda ([v3 : Integer]) (cps-tak v1 v2 v3 k)))))))))
(define (main) : Integer
  (let loop : Integer ([i : Integer 0] [acc : Integer 0])
    (if (= i 12) acc
        (loop (+ i 1) (+ acc (cps-tak 18 12 6 (lambda ([a : Integer]) a)))))))
(display (main))
|}

let takl =
  b "takl" "fig6" "Gabriel"
    {|
(define (listn n) (if (= n 0) '() (cons n (listn (- n 1)))))
(define (shorterp x y)
  (and (pair? y) (or (null? x) (shorterp (cdr x) (cdr y)))))
(define (mas x y z)
  (if (not (shorterp y x)) z
      (mas (mas (cdr x) y z) (mas (cdr y) z x) (mas (cdr z) x y))))
(define (main)
  (let loop ([i 0] [acc 0])
    (if (= i 4) acc (loop (+ i 1) (+ acc (length (mas (listn 14) (listn 10) (listn 5))))))))
(display (main))
|}
    {|
(define (listn [n : Integer]) : (Listof Integer)
  (if (= n 0) '() (cons n (listn (- n 1)))))
(define (shorterp [x : (Listof Integer)] [y : (Listof Integer)]) : Boolean
  (and (pair? y) (or (null? x) (shorterp (cdr x) (cdr y)))))
(define (mas [x : (Listof Integer)] [y : (Listof Integer)] [z : (Listof Integer)])
  : (Listof Integer)
  (if (not (shorterp y x)) z
      (mas (mas (cdr x) y z) (mas (cdr y) z x) (mas (cdr z) x y))))
(define (main) : Integer
  (let loop : Integer ([i : Integer 0] [acc : Integer 0])
    (if (= i 4) acc (loop (+ i 1) (+ acc (length (mas (listn 14) (listn 10) (listn 5))))))))
(display (main))
|}

let divrec =
  b "divrec" "fig6" "Gabriel"
    {|
(define (create-n n)
  (let loop ([n n] [acc '()])
    (if (= n 0) acc (loop (- n 1) (cons '() acc)))))
(define (recursive-div2 l)
  (if (null? l) '() (cons (car l) (recursive-div2 (cddr l)))))
(define (main)
  (let ([l (create-n 200)])
    (let loop ([i 0] [acc 0])
      (if (= i 800) acc (loop (+ i 1) (+ acc (length (recursive-div2 l))))))))
(display (main))
|}
    {|
(define (create-n [n : Integer]) : (Listof Null)
  (let loop : (Listof Null) ([n : Integer n] [acc : (Listof Null) '()])
    (if (= n 0) acc (loop (- n 1) (cons '() acc)))))
(define (recursive-div2 [l : (Listof Null)]) : (Listof Null)
  (if (null? l) '() (cons (car l) (recursive-div2 (cddr l)))))
(define (main) : Integer
  (let ([l (create-n 200)])
    (let loop : Integer ([i : Integer 0] [acc : Integer 0])
      (if (= i 800) acc (loop (+ i 1) (+ acc (length (recursive-div2 l))))))))
(display (main))
|}

let nqueens =
  b "nqueens" "fig6" "Gabriel"
    {|
(define (iota n)
  (let loop ([i n] [acc '()])
    (if (= i 0) acc (loop (- i 1) (cons i acc)))))
(define (ok? row dist placed)
  (if (null? placed) #t
      (and (not (= (car placed) (+ row dist)))
           (not (= (car placed) (- row dist)))
           (ok? row (+ dist 1) (cdr placed)))))
(define (try x y z)
  (if (null? x)
      (if (null? y) 1 0)
      (+ (if (ok? (car x) 1 z)
             (try (append (cdr x) y) '() (cons (car x) z))
             0)
         (try (cdr x) (cons (car x) y) z))))
(define (main) (try (iota 8) '() '()))
(display (main))
|}
    {|
(define (iota [n : Integer]) : (Listof Integer)
  (let loop : (Listof Integer) ([i : Integer n] [acc : (Listof Integer) '()])
    (if (= i 0) acc (loop (- i 1) (cons i acc)))))
(define (ok? [row : Integer] [dist : Integer] [placed : (Listof Integer)]) : Boolean
  (if (null? placed) #t
      (and (not (= (car placed) (+ row dist)))
           (not (= (car placed) (- row dist)))
           (ok? row (+ dist 1) (cdr placed)))))
(define (try [x : (Listof Integer)] [y : (Listof Integer)] [z : (Listof Integer)]) : Integer
  (if (null? x)
      (if (null? y) 1 0)
      (+ (if (ok? (car x) 1 z)
             (try (append (cdr x) y) '() (cons (car x) z))
             0)
         (try (cdr x) (cons (car x) y) z))))
(define (main) : Integer (try (iota 8) '() '()))
(display (main))
|}

let sum =
  b "sum" "fig6" "Larceny"
    {|
(define (run n)
  (let loop ([i 0] [s 0])
    (if (< i n) (loop (+ i 1) (+ s i)) s)))
(define (main)
  (let loop ([k 0] [acc 0])
    (if (= k 60) acc (loop (+ k 1) (+ acc (run 10000))))))
(display (main))
|}
    {|
(define (run [n : Integer]) : Integer
  (let loop : Integer ([i : Integer 0] [s : Integer 0])
    (if (< i n) (loop (+ i 1) (+ s i)) s)))
(define (main) : Integer
  (let loop : Integer ([k : Integer 0] [acc : Integer 0])
    (if (= k 60) acc (loop (+ k 1) (+ acc (run 10000))))))
(display (main))
|}

let sumfp =
  b "sumfp" "fig6" "Larceny"
    {|
(define (run n)
  (let loop ([i 0.0] [s 0.0])
    (if (< i n) (loop (+ i 1.0) (+ s i)) s)))
(define (main)
  (let loop ([k 0] [acc 0.0])
    (if (= k 60) acc (loop (+ k 1) (+ acc (run 10000.0))))))
(display (main))
|}
    {|
(define (run [n : Float]) : Float
  (let loop : Float ([i : Float 0.0] [s : Float 0.0])
    (if (< i n) (loop (+ i 1.0) (+ s i)) s)))
(define (main) : Float
  (let loop : Float ([k : Integer 0] [acc : Float 0.0])
    (if (= k 60) acc (loop (+ k 1) (+ acc (run 10000.0))))))
(display (main))
|}

let fib =
  b "fib" "fig6" "Larceny"
    {|
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(define (main) (fib 24))
(display (main))
|}
    {|
(define (fib [n : Integer]) : Integer
  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(define (main) : Integer (fib 24))
(display (main))
|}

let fibfp =
  b "fibfp" "fig6" "Larceny"
    {|
(define (fibfp n) (if (< n 2.0) n (+ (fibfp (- n 1.0)) (fibfp (- n 2.0)))))
(define (main) (fibfp 22.0))
(display (main))
|}
    {|
(define (fibfp [n : Float]) : Float
  (if (< n 2.0) n (+ (fibfp (- n 1.0)) (fibfp (- n 2.0)))))
(define (main) : Float (fibfp 22.0))
(display (main))
|}

let ack =
  b "ack" "fig6" "Larceny"
    {|
(define (ack m n)
  (cond [(= m 0) (+ n 1)]
        [(= n 0) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
(define (main)
  (let loop ([i 0] [acc 0])
    (if (= i 6) acc (loop (+ i 1) (+ acc (ack 3 5))))))
(display (main))
|}
    {|
(define (ack [m : Integer] [n : Integer]) : Integer
  (cond [(= m 0) (+ n 1)]
        [(= n 0) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
(define (main) : Integer
  (let loop : Integer ([i : Integer 0] [acc : Integer 0])
    (if (= i 6) acc (loop (+ i 1) (+ acc (ack 3 5))))))
(display (main))
|}

let mbrot =
  b "mbrot" "fig6" "Larceny"
    {|
(define (iterations cr ci)
  (let loop ([zr 0.0] [zi 0.0] [c 0])
    (if (= c 64) c
        (let ([zr2 (* zr zr)] [zi2 (* zi zi)])
          (if (> (+ zr2 zi2) 4.0) c
              (loop (+ (- zr2 zi2) cr) (+ (* 2.0 (* zr zi)) ci) (+ c 1)))))))
(define (mbrot n)
  (let yloop ([y 0] [total 0])
    (if (= y n) total
        (yloop (+ y 1)
          (let xloop ([x 0] [t total])
            (if (= x n) t
                (xloop (+ x 1)
                  (+ t (iterations (+ -1.5 (/ (* 2.0 (exact->inexact x)) (exact->inexact n)))
                                   (+ -1.0 (/ (* 2.0 (exact->inexact y)) (exact->inexact n))))))))))))
(define (main) (mbrot 48))
(display (main))
|}
    {|
(define (iterations [cr : Float] [ci : Float]) : Integer
  (let loop : Integer ([zr : Float 0.0] [zi : Float 0.0] [c : Integer 0])
    (if (= c 64) c
        (let ([zr2 (* zr zr)] [zi2 (* zi zi)])
          (if (> (+ zr2 zi2) 4.0) c
              (loop (+ (- zr2 zi2) cr) (+ (* 2.0 (* zr zi)) ci) (+ c 1)))))))
(define (mbrot [n : Integer]) : Integer
  (let yloop : Integer ([y : Integer 0] [total : Integer 0])
    (if (= y n) total
        (yloop (+ y 1)
          (let xloop : Integer ([x : Integer 0] [t : Integer total])
            (if (= x n) t
                (xloop (+ x 1)
                  (+ t (iterations (+ -1.5 (/ (* 2.0 (exact->inexact x)) (exact->inexact n)))
                                   (+ -1.0 (/ (* 2.0 (exact->inexact y)) (exact->inexact n))))))))))))
(define (main) : Integer (mbrot 48))
(display (main))
|}

let heapsort =
  b "heapsort" "fig6" "Larceny"
    {|
(define (next-rand s) (modulo (+ (* s 1103515245) 12345) 2147483648))
(define (fill-random! v n)
  (let loop ([i 0] [s 42])
    (when (< i n)
      (vector-set! v i (/ (exact->inexact s) 2147483648.0))
      (loop (+ i 1) (next-rand s)))))
(define (sift-down! v start end)
  (let loop ([root start])
    (let ([child (+ (* 2 root) 1)])
      (when (<= child end)
        (let ([child (if (and (< child end)
                              (< (vector-ref v child) (vector-ref v (+ child 1))))
                         (+ child 1)
                         child)])
          (when (< (vector-ref v root) (vector-ref v child))
            (let ([tmp (vector-ref v root)])
              (vector-set! v root (vector-ref v child))
              (vector-set! v child tmp))
            (loop child)))))))
(define (heapsort! v n)
  (let heapify ([start (quotient (- n 2) 2)])
    (when (>= start 0)
      (sift-down! v start (- n 1))
      (heapify (- start 1))))
  (let drain ([end (- n 1)])
    (when (> end 0)
      (let ([tmp (vector-ref v 0)])
        (vector-set! v 0 (vector-ref v end))
        (vector-set! v end tmp))
      (sift-down! v 0 (- end 1))
      (drain (- end 1)))))
(define (main)
  (let ([v (make-vector 2000 0.0)])
    (let loop ([k 0] [acc 0.0])
      (if (= k 10) (floor (* 1000.0 acc))
          (begin
            (fill-random! v 2000)
            (heapsort! v 2000)
            (loop (+ k 1) (+ acc (vector-ref v 1000))))))))
(display (main))
|}
    {|
(define (next-rand [s : Integer]) : Integer (modulo (+ (* s 1103515245) 12345) 2147483648))
(define (fill-random! [v : (Vectorof Float)] [n : Integer]) : Void
  (let loop : Void ([i : Integer 0] [s : Integer 42])
    (when (< i n)
      (vector-set! v i (/ (exact->inexact s) 2147483648.0))
      (loop (+ i 1) (next-rand s)))))
(define (sift-down! [v : (Vectorof Float)] [start : Integer] [end : Integer]) : Void
  (let loop : Void ([root : Integer start])
    (let ([child (+ (* 2 root) 1)])
      (when (<= child end)
        (let ([child (if (and (< child end)
                              (< (vector-ref v child) (vector-ref v (+ child 1))))
                         (+ child 1)
                         child)])
          (when (< (vector-ref v root) (vector-ref v child))
            (let ([tmp (vector-ref v root)])
              (vector-set! v root (vector-ref v child))
              (vector-set! v child tmp))
            (loop child)))))))
(define (heapsort! [v : (Vectorof Float)] [n : Integer]) : Void
  (let heapify : Void ([start : Integer (quotient (- n 2) 2)])
    (when (>= start 0)
      (sift-down! v start (- n 1))
      (heapify (- start 1))))
  (let drain : Void ([end : Integer (- n 1)])
    (when (> end 0)
      (let ([tmp (vector-ref v 0)])
        (vector-set! v 0 (vector-ref v end))
        (vector-set! v end tmp))
      (sift-down! v 0 (- end 1))
      (drain (- end 1)))))
(define (main) : Float
  (let ([v (make-vector 2000 0.0)])
    (let loop : Float ([k : Integer 0] [acc : Float 0.0])
      (if (= k 10) (floor (* 1000.0 acc))
          (begin
            (fill-random! v 2000)
            (heapsort! v 2000)
            (loop (+ k 1) (+ acc (vector-ref v 1000))))))))
(display (main))
|}

let array1 =
  b "array1" "fig6" "Larceny"
    {|
(define (create-x n)
  (let ([result (make-vector n 0)])
    (let loop ([i 0])
      (when (< i n)
        (vector-set! result i i)
        (loop (+ i 1))))
    result))
(define (create-y x)
  (let* ([n (vector-length x)]
         [result (make-vector n 0)])
    (let loop ([i (- n 1)])
      (when (>= i 0)
        (vector-set! result i (vector-ref x i))
        (loop (- i 1))))
    result))
(define (my-try n)
  (vector-length (create-y (create-x n))))
(define (main)
  (let loop ([i 0] [acc 0])
    (if (= i 80) acc (loop (+ i 1) (+ acc (my-try 2000))))))
(display (main))
|}
    {|
(define (create-x [n : Integer]) : (Vectorof Integer)
  (let ([result (make-vector n 0)])
    (let loop : Void ([i : Integer 0])
      (when (< i n)
        (vector-set! result i i)
        (loop (+ i 1))))
    result))
(define (create-y [x : (Vectorof Integer)]) : (Vectorof Integer)
  (let* ([n (vector-length x)]
         [result (make-vector n 0)])
    (let loop : Void ([i : Integer (- n 1)])
      (when (>= i 0)
        (vector-set! result i (vector-ref x i))
        (loop (- i 1))))
    result))
(define (my-try [n : Integer]) : Integer
  (vector-length (create-y (create-x n))))
(define (main) : Integer
  (let loop : Integer ([i : Integer 0] [acc : Integer 0])
    (if (= i 80) acc (loop (+ i 1) (+ acc (my-try 2000))))))
(display (main))
|}

let deriv =
  b "deriv" "fig6" "Gabriel"
    {|
(define (deriv-aux a) (list '/ (deriv a) a))
(define (deriv a)
  (cond
    [(not (pair? a)) (if (eq? a 'x) 1 0)]
    [(eq? (car a) '+) (cons '+ (map deriv (cdr a)))]
    [(eq? (car a) '-) (cons '- (map deriv (cdr a)))]
    [(eq? (car a) '*) (list '* a (cons '+ (map deriv-aux (cdr a))))]
    [(eq? (car a) '/) (list '- (list '/ (deriv (cadr a)) (caddr a))
                            (list '/ (cadr a) (list '* (caddr a) (caddr a) (deriv (caddr a)))))]
    [else 'error]))
(define (count-tree t) (if (pair? t) (+ (count-tree (car t)) (count-tree (cdr t))) 1))
(define (main)
  (let loop ([i 0] [acc 0])
    (if (= i 600) acc
        (loop (+ i 1)
              (+ acc (count-tree (deriv '(+ (* 3 x x) (* a x x) (* b x) 5))))))))
(display (main))
|}
    {|
(define (deriv-aux [a : Any]) : Any (list '/ (deriv a) a))
(define (deriv [a : Any]) : Any
  (cond
    [(not (pair? a)) (if (eq? a 'x) 1 0)]
    [(eq? (car a) '+) (cons '+ (map deriv (cdr a)))]
    [(eq? (car a) '-) (cons '- (map deriv (cdr a)))]
    [(eq? (car a) '*) (list '* a (cons '+ (map deriv-aux (cdr a))))]
    [(eq? (car a) '/) (list '- (list '/ (deriv (cadr a)) (caddr a))
                            (list '/ (cadr a) (list '* (caddr a) (caddr a) (deriv (caddr a)))))]
    [else 'error]))
(define (count-tree [t : Any]) : Integer
  (if (pair? t) (+ (count-tree (car t)) (count-tree (cdr t))) 1))
(define (main) : Integer
  (let loop : Integer ([i : Integer 0] [acc : Integer 0])
    (if (= i 600) acc
        (loop (+ i 1)
              (+ acc (count-tree (deriv '(+ (* 3 x x) (* a x x) (* b x) 5))))))))
(display (main))
|}

(* ------------------------------------------------------------------ *)
(* Figure 7: Computer Language Benchmarks Game                         *)
(* ------------------------------------------------------------------ *)

let nbody =
  b "nbody" "fig7" "CLBG"
    {|
(define (body x y z vx vy vz m)
  (let ([v (make-vector 7 0.0)])
    (vector-set! v 0 x) (vector-set! v 1 y) (vector-set! v 2 z)
    (vector-set! v 3 vx) (vector-set! v 4 vy) (vector-set! v 5 vz)
    (vector-set! v 6 m)
    v))
(define solar-mass 39.47841760435743)
(define days-per-year 365.24)
(define (bodies)
  (vector
   (body 0.0 0.0 0.0 0.0 0.0 0.0 solar-mass)
   (body 4.84143144246472090 -1.16032004402742839 -0.103622044471123109
         (* 0.00166007664274403694 days-per-year) (* 0.00769901118419740425 days-per-year)
         (* -0.0000690460016972063023 days-per-year) (* 0.000954791938424326609 solar-mass))
   (body 8.34336671824457987 4.12479856412430479 -0.403523417114321381
         (* -0.00276742510726862411 days-per-year) (* 0.00499852801234917238 days-per-year)
         (* 0.0000230417297573763929 days-per-year) (* 0.000285885980666130812 solar-mass))
   (body 12.8943695621391310 -15.1111514016986312 -0.223307578892655734
         (* 0.00296460137564761618 days-per-year) (* 0.00237847173959480950 days-per-year)
         (* -0.0000296589568540237556 days-per-year) (* 0.0000436624404335156298 solar-mass))
   (body 15.3796971148509165 -25.9193146099879641 0.179258772950371181
         (* 0.00268067772490389322 days-per-year) (* 0.00162824170038242295 days-per-year)
         (* -0.0000951592254519715870 days-per-year) (* 0.0000515138902046611451 solar-mass))))
(define (advance! bs dt)
  (let ([n (vector-length bs)])
    (let iloop ([i 0])
      (when (< i n)
        (let ([bi (vector-ref bs i)])
          (let jloop ([j (+ i 1)])
            (when (< j n)
              (let ([bj (vector-ref bs j)])
                (let* ([dx (- (vector-ref bi 0) (vector-ref bj 0))]
                       [dy (- (vector-ref bi 1) (vector-ref bj 1))]
                       [dz (- (vector-ref bi 2) (vector-ref bj 2))]
                       [d2 (+ (* dx dx) (+ (* dy dy) (* dz dz)))]
                       [mag (/ dt (* d2 (sqrt d2)))]
                       [mi (* (vector-ref bi 6) mag)]
                       [mj (* (vector-ref bj 6) mag)])
                  (vector-set! bi 3 (- (vector-ref bi 3) (* dx mj)))
                  (vector-set! bi 4 (- (vector-ref bi 4) (* dy mj)))
                  (vector-set! bi 5 (- (vector-ref bi 5) (* dz mj)))
                  (vector-set! bj 3 (+ (vector-ref bj 3) (* dx mi)))
                  (vector-set! bj 4 (+ (vector-ref bj 4) (* dy mi)))
                  (vector-set! bj 5 (+ (vector-ref bj 5) (* dz mi)))))
              (jloop (+ j 1)))))
        (iloop (+ i 1))))
    (let mloop ([i 0])
      (when (< i n)
        (let ([bi (vector-ref bs i)])
          (vector-set! bi 0 (+ (vector-ref bi 0) (* dt (vector-ref bi 3))))
          (vector-set! bi 1 (+ (vector-ref bi 1) (* dt (vector-ref bi 4))))
          (vector-set! bi 2 (+ (vector-ref bi 2) (* dt (vector-ref bi 5)))))
        (mloop (+ i 1))))))
(define (energy bs)
  (let ([n (vector-length bs)])
    (let iloop ([i 0] [e 0.0])
      (if (= i n) e
          (let ([bi (vector-ref bs i)])
            (let ([e (+ e (* 0.5 (* (vector-ref bi 6)
                                    (+ (* (vector-ref bi 3) (vector-ref bi 3))
                                       (+ (* (vector-ref bi 4) (vector-ref bi 4))
                                          (* (vector-ref bi 5) (vector-ref bi 5)))))))])
              (let jloop ([j (+ i 1)] [e e])
                (if (= j n) (iloop (+ i 1) e)
                    (let ([bj (vector-ref bs j)])
                      (let* ([dx (- (vector-ref bi 0) (vector-ref bj 0))]
                             [dy (- (vector-ref bi 1) (vector-ref bj 1))]
                             [dz (- (vector-ref bi 2) (vector-ref bj 2))]
                             [d (sqrt (+ (* dx dx) (+ (* dy dy) (* dz dz))))])
                        (jloop (+ j 1)
                               (- e (/ (* (vector-ref bi 6) (vector-ref bj 6)) d)))))))))))))
(define (main)
  (let ([bs (bodies)])
    (let loop ([i 0])
      (when (< i 6000)
        (advance! bs 0.01)
        (loop (+ i 1))))
    (floor (* 1000000.0 (energy bs)))))
(display (main))
|}
    {|
(define (body [x : Float] [y : Float] [z : Float]
              [vx : Float] [vy : Float] [vz : Float] [m : Float]) : (Vectorof Float)
  (let ([v (make-vector 7 0.0)])
    (vector-set! v 0 x) (vector-set! v 1 y) (vector-set! v 2 z)
    (vector-set! v 3 vx) (vector-set! v 4 vy) (vector-set! v 5 vz)
    (vector-set! v 6 m)
    v))
(define solar-mass : Float 39.47841760435743)
(define days-per-year : Float 365.24)
(define (bodies) : (Vectorof (Vectorof Float))
  (vector
   (body 0.0 0.0 0.0 0.0 0.0 0.0 solar-mass)
   (body 4.84143144246472090 -1.16032004402742839 -0.103622044471123109
         (* 0.00166007664274403694 days-per-year) (* 0.00769901118419740425 days-per-year)
         (* -0.0000690460016972063023 days-per-year) (* 0.000954791938424326609 solar-mass))
   (body 8.34336671824457987 4.12479856412430479 -0.403523417114321381
         (* -0.00276742510726862411 days-per-year) (* 0.00499852801234917238 days-per-year)
         (* 0.0000230417297573763929 days-per-year) (* 0.000285885980666130812 solar-mass))
   (body 12.8943695621391310 -15.1111514016986312 -0.223307578892655734
         (* 0.00296460137564761618 days-per-year) (* 0.00237847173959480950 days-per-year)
         (* -0.0000296589568540237556 days-per-year) (* 0.0000436624404335156298 solar-mass))
   (body 15.3796971148509165 -25.9193146099879641 0.179258772950371181
         (* 0.00268067772490389322 days-per-year) (* 0.00162824170038242295 days-per-year)
         (* -0.0000951592254519715870 days-per-year) (* 0.0000515138902046611451 solar-mass))))
(define (advance! [bs : (Vectorof (Vectorof Float))] [dt : Float]) : Void
  (let ([n (vector-length bs)])
    (let iloop : Void ([i : Integer 0])
      (when (< i n)
        (let ([bi (vector-ref bs i)])
          (let jloop : Void ([j : Integer (+ i 1)])
            (when (< j n)
              (let ([bj (vector-ref bs j)])
                (let* ([dx (- (vector-ref bi 0) (vector-ref bj 0))]
                       [dy (- (vector-ref bi 1) (vector-ref bj 1))]
                       [dz (- (vector-ref bi 2) (vector-ref bj 2))]
                       [d2 (+ (* dx dx) (+ (* dy dy) (* dz dz)))]
                       [mag (/ dt (* d2 (sqrt d2)))]
                       [mi (* (vector-ref bi 6) mag)]
                       [mj (* (vector-ref bj 6) mag)])
                  (vector-set! bi 3 (- (vector-ref bi 3) (* dx mj)))
                  (vector-set! bi 4 (- (vector-ref bi 4) (* dy mj)))
                  (vector-set! bi 5 (- (vector-ref bi 5) (* dz mj)))
                  (vector-set! bj 3 (+ (vector-ref bj 3) (* dx mi)))
                  (vector-set! bj 4 (+ (vector-ref bj 4) (* dy mi)))
                  (vector-set! bj 5 (+ (vector-ref bj 5) (* dz mi)))))
              (jloop (+ j 1)))))
        (iloop (+ i 1))))
    (let mloop : Void ([i : Integer 0])
      (when (< i n)
        (let ([bi (vector-ref bs i)])
          (vector-set! bi 0 (+ (vector-ref bi 0) (* dt (vector-ref bi 3))))
          (vector-set! bi 1 (+ (vector-ref bi 1) (* dt (vector-ref bi 4))))
          (vector-set! bi 2 (+ (vector-ref bi 2) (* dt (vector-ref bi 5)))))
        (mloop (+ i 1))))))
(define (energy [bs : (Vectorof (Vectorof Float))]) : Float
  (let ([n (vector-length bs)])
    (let iloop : Float ([i : Integer 0] [e : Float 0.0])
      (if (= i n) e
          (let ([bi (vector-ref bs i)])
            (let ([e (+ e (* 0.5 (* (vector-ref bi 6)
                                    (+ (* (vector-ref bi 3) (vector-ref bi 3))
                                       (+ (* (vector-ref bi 4) (vector-ref bi 4))
                                          (* (vector-ref bi 5) (vector-ref bi 5)))))))])
              (let jloop : Float ([j : Integer (+ i 1)] [e : Float e])
                (if (= j n) (iloop (+ i 1) e)
                    (let ([bj (vector-ref bs j)])
                      (let* ([dx (- (vector-ref bi 0) (vector-ref bj 0))]
                             [dy (- (vector-ref bi 1) (vector-ref bj 1))]
                             [dz (- (vector-ref bi 2) (vector-ref bj 2))]
                             [d (sqrt (+ (* dx dx) (+ (* dy dy) (* dz dz))))])
                        (jloop (+ j 1)
                               (- e (/ (* (vector-ref bi 6) (vector-ref bj 6)) d)))))))))))))
(define (main) : Float
  (let ([bs (bodies)])
    (let loop : Void ([i : Integer 0])
      (when (< i 6000)
        (advance! bs 0.01)
        (loop (+ i 1))))
    (floor (* 1000000.0 (energy bs)))))
(display (main))
|}

let spectralnorm =
  b "spectralnorm" "fig7" "CLBG"
    {|
(define (A i j)
  (/ 1.0 (+ (* (exact->inexact (+ i j)) (/ (exact->inexact (+ i (+ j 1))) 2.0))
            (exact->inexact (+ i 1)))))
(define (mulAv n v out transpose?)
  (let ([Aij (lambda (ai aj) (if transpose? (A aj ai) (A ai aj)))])
    (let iloop ([i 0])
      (when (< i n)
        (vector-set! out i 0.0)
        (let jloop ([j 0])
          (when (< j n)
            (vector-set! out i (+ (vector-ref out i)
                                  (* (Aij i j) (vector-ref v j))))
            (jloop (+ j 1))))
        (iloop (+ i 1))))))
(define (main)
  (let* ([n 40]
         [u (make-vector n 1.0)]
         [v (make-vector n 0.0)]
         [w (make-vector n 0.0)])
    (let loop ([k 0])
      (when (< k 10)
        (mulAv n u w #f) (mulAv n w v #t)
        (mulAv n v w #f) (mulAv n w u #t)
        (loop (+ k 1))))
    (let loop ([i 0] [vbv 0.0] [vv 0.0])
      (if (= i n)
          (floor (* 1000000000.0 (sqrt (/ vbv vv))))
          (loop (+ i 1)
                (+ vbv (* (vector-ref u i) (vector-ref v i)))
                (+ vv (* (vector-ref v i) (vector-ref v i))))))))
(display (main))
|}
    {|
(define (A [i : Integer] [j : Integer]) : Float
  (/ 1.0 (+ (* (exact->inexact (+ i j)) (/ (exact->inexact (+ i (+ j 1))) 2.0))
            (exact->inexact (+ i 1)))))
(define (mulAv [n : Integer] [v : (Vectorof Float)] [out : (Vectorof Float)]
               [transpose? : Boolean]) : Void
  (let ([Aij (lambda ([ai : Integer] [aj : Integer]) (if transpose? (A aj ai) (A ai aj)))])
    (let iloop : Void ([i : Integer 0])
      (when (< i n)
        (vector-set! out i 0.0)
        (let jloop : Void ([j : Integer 0])
          (when (< j n)
            (vector-set! out i (+ (vector-ref out i)
                                  (* (Aij i j) (vector-ref v j))))
            (jloop (+ j 1))))
        (iloop (+ i 1))))))
(define (main) : Float
  (let* ([n 40]
         [u (make-vector n 1.0)]
         [v (make-vector n 0.0)]
         [w (make-vector n 0.0)])
    (let loop : Void ([k : Integer 0])
      (when (< k 10)
        (mulAv n u w #f) (mulAv n w v #t)
        (mulAv n v w #f) (mulAv n w u #t)
        (loop (+ k 1))))
    (let loop : Float ([i : Integer 0] [vbv : Float 0.0] [vv : Float 0.0])
      (if (= i n)
          (floor (* 1000000000.0 (sqrt (/ vbv vv))))
          (loop (+ i 1)
                (+ vbv (* (vector-ref u i) (vector-ref v i)))
                (+ vv (* (vector-ref v i) (vector-ref v i))))))))
(display (main))
|}

let mandelbrot =
  b "mandelbrot" "fig7" "CLBG"
    {|
(define (escapes? c)
  (let loop ([z 0.0+0.0i] [n 0])
    (cond [(= n 50) 1]
          [(> (magnitude z) 2.0) 0]
          [else (loop (+ (* z z) c) (+ n 1))])))
(define (main)
  (let yloop ([y 0] [total 0])
    (if (= y 24) total
        (yloop (+ y 1)
          (let xloop ([x 0] [t total])
            (if (= x 24) t
                (xloop (+ x 1)
                  (+ t (escapes? (make-rectangular
                                  (+ -1.5 (/ (* 2.0 (exact->inexact x)) 24.0))
                                  (+ -1.0 (/ (* 2.0 (exact->inexact y)) 24.0))))))))))))
(display (main))
|}
    {|
(define (escapes? [c : Float-Complex]) : Integer
  (let loop : Integer ([z : Float-Complex 0.0+0.0i] [n : Integer 0])
    (cond [(= n 50) 1]
          [(> (magnitude z) 2.0) 0]
          [else (loop (+ (* z z) c) (+ n 1))])))
(define (main) : Integer
  (let yloop : Integer ([y : Integer 0] [total : Integer 0])
    (if (= y 24) total
        (yloop (+ y 1)
          (let xloop : Integer ([x : Integer 0] [t : Integer total])
            (if (= x 24) t
                (xloop (+ x 1)
                  (+ t (escapes? (make-rectangular
                                  (+ -1.5 (/ (* 2.0 (exact->inexact x)) 24.0))
                                  (+ -1.0 (/ (* 2.0 (exact->inexact y)) 24.0))))))))))))
(display (main))
|}

let binarytrees =
  b "binarytrees" "fig7" "CLBG"
    {|
(define (make-node item depth)
  (if (= depth 0)
      (cons item '())
      (cons item (cons (make-node (- (* 2 item) 1) (- depth 1))
                       (make-node (* 2 item) (- depth 1))))))
(define (check node)
  (if (null? (cdr node))
      (car node)
      (+ (car node)
         (- (check (car (cdr node))) (check (cdr (cdr node)))))))
(define (main)
  (let loop ([d 4] [acc 0])
    (if (> d 12) acc
        (loop (+ d 2)
              (+ acc (let iter ([i 0] [t 0])
                       (if (= i 12) t
                           (iter (+ i 1) (+ t (check (make-node i d)))))))))))
(display (main))
|}
    {|
(define (make-node [item : Integer] [depth : Integer]) : Any
  (if (= depth 0)
      (cons item '())
      (cons item (cons (make-node (- (* 2 item) 1) (- depth 1))
                       (make-node (* 2 item) (- depth 1))))))
(define (check [node : Any]) : Integer
  (if (null? (cdr node))
      (car node)
      (+ (car node)
         (- (check (car (cdr node))) (check (cdr (cdr node)))))))
(define (main) : Integer
  (let loop : Integer ([d : Integer 4] [acc : Integer 0])
    (if (> d 12) acc
        (loop (+ d 2)
              (+ acc (let iter : Integer ([i : Integer 0] [t : Integer 0])
                       (if (= i 12) t
                           (iter (+ i 1) (+ t (check (make-node i d)))))))))))
(display (main))
|}

let fannkuch =
  b "fannkuch" "fig7" "CLBG"
    {|
(define (flips p)
  (let loop ([p p] [n 0])
    (let ([f (car p)])
      (if (= f 1) n
          (loop (let rev ([k f] [front '()] [rest p])
                  (if (= k 0) (append front rest)
                      (rev (- k 1) (cons (car rest) front) (cdr rest))))
                (+ n 1))))))
(define (insertions x l)
  (if (null? l)
      (list (list x))
      (cons (cons x l)
            (map (lambda (r) (cons (car l) r)) (insertions x (cdr l))))))
(define (permutations l)
  (if (null? l) (list '())
      (foldr (lambda (p acc) (append (insertions (car l) p) acc))
             '() (permutations (cdr l)))))
(define (main)
  (foldl (lambda (p best) (max best (flips p))) 0 (permutations (list 1 2 3 4 5 6 7))))
(display (main))
|}
    {|
(define (flips [p : (Listof Integer)]) : Integer
  (let loop : Integer ([p : (Listof Integer) p] [n : Integer 0])
    (let ([f (car p)])
      (if (= f 1) n
          (loop (let rev : (Listof Integer)
                  ([k : Integer f] [front : (Listof Integer) '()] [rest : (Listof Integer) p])
                  (if (= k 0) (append front rest)
                      (rev (- k 1) (cons (car rest) front) (cdr rest))))
                (+ n 1))))))
(define (insertions [x : Integer] [l : (Listof Integer)]) : (Listof (Listof Integer))
  (if (null? l)
      (list (list x))
      (cons (cons x l)
            (map (lambda ([r : (Listof Integer)]) (cons (car l) r)) (insertions x (cdr l))))))
(define (permutations [l : (Listof Integer)]) : (Listof (Listof Integer))
  (if (null? l) (list '())
      (foldr (lambda ([p : (Listof Integer)] [acc : (Listof (Listof Integer))])
               (append (insertions (car l) p) acc))
             '() (permutations (cdr l)))))
(define (main) : Integer
  (foldl (lambda ([p : (Listof Integer)] [best : Integer]) (max best (flips p)))
         0 (permutations (list 1 2 3 4 5 6 7))))
(display (main))
|}

(* ------------------------------------------------------------------ *)
(* Figure 8: pseudoknot (float-intensive kernel; see DESIGN.md)        *)
(* ------------------------------------------------------------------ *)

let pseudoknot =
  b "pseudoknot" "fig8" "Hartel et al."
    {|
(define (next-seed s)
  (let ([x (* s 16807.0)])
    (- x (* 2147483647.0 (floor (/ x 2147483647.0))))))
(define (frand s) (/ s 2147483647.0))
(define (rms-after-transform seed atoms)
  (let ([theta (* 6.283185307179586 (frand seed))]
        [phi (* 3.141592653589793 (frand (next-seed seed)))])
    (let ([ct (cos theta)] [st (sin theta)] [cp (cos phi)] [sp (sin phi)])
      (let loop ([i 0] [acc 0.0] [x 1.0] [y 0.5] [z -0.3])
        (if (= i atoms) (sqrt (/ acc (exact->inexact atoms)))
            (let ([nx (+ (- (* ct x) (* st y)) (* 0.1 cp))]
                  [ny (+ (+ (* st x) (* ct y)) (* 0.1 sp))]
                  [nz (+ (* cp z) (* 0.05 (- (* sp x) (* sp y))))])
              (loop (+ i 1)
                    (+ acc (+ (* (- nx x) (- nx x))
                              (+ (* (- ny y) (- ny y)) (* (- nz z) (- nz z)))))
                    nx ny nz)))))))
(define (search n atoms)
  (let loop ([i 0] [seed 42.0] [best 1e30])
    (if (= i n) best
        (let ([r (rms-after-transform seed atoms)])
          (loop (+ i 1) (next-seed seed) (min best r))))))
(define (main) (floor (* 1000000.0 (search 2000 60))))
(display (main))
|}
    {|
(define (next-seed [s : Float]) : Float
  (let ([x (* s 16807.0)])
    (- x (* 2147483647.0 (floor (/ x 2147483647.0))))))
(define (frand [s : Float]) : Float (/ s 2147483647.0))
(define (rms-after-transform [seed : Float] [atoms : Integer]) : Float
  (let ([theta (* 6.283185307179586 (frand seed))]
        [phi (* 3.141592653589793 (frand (next-seed seed)))])
    (let ([ct (cos theta)] [st (sin theta)] [cp (cos phi)] [sp (sin phi)])
      (let loop : Float ([i : Integer 0] [acc : Float 0.0]
                         [x : Float 1.0] [y : Float 0.5] [z : Float -0.3])
        (if (= i atoms) (sqrt (/ acc (exact->inexact atoms)))
            (let ([nx (+ (- (* ct x) (* st y)) (* 0.1 cp))]
                  [ny (+ (+ (* st x) (* ct y)) (* 0.1 sp))]
                  [nz (+ (* cp z) (* 0.05 (- (* sp x) (* sp y))))])
              (loop (+ i 1)
                    (+ acc (+ (* (- nx x) (- nx x))
                              (+ (* (- ny y) (- ny y)) (* (- nz z) (- nz z)))))
                    nx ny nz)))))))
(define (search [n : Integer] [atoms : Integer]) : Float
  (let loop : Float ([i : Integer 0] [seed : Float 42.0] [best : Float 1e30])
    (if (= i n) best
        (let ([r (rms-after-transform seed atoms)])
          (loop (+ i 1) (next-seed seed) (min best r))))))
(define (main) : Float (floor (* 1000000.0 (search 2000 60))))
(display (main))
|}

(* ------------------------------------------------------------------ *)
(* Figure 9: large benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let raytrace =
  b "raytrace" "fig9" "application"
    {|
(define (v3 x y z)
  (let ([v (make-vector 3 0.0)])
    (vector-set! v 0 x) (vector-set! v 1 y) (vector-set! v 2 z) v))
(define (dot a b)
  (+ (* (vector-ref a 0) (vector-ref b 0))
     (+ (* (vector-ref a 1) (vector-ref b 1))
        (* (vector-ref a 2) (vector-ref b 2)))))
(define (sub a b)
  (v3 (- (vector-ref a 0) (vector-ref b 0))
      (- (vector-ref a 1) (vector-ref b 1))
      (- (vector-ref a 2) (vector-ref b 2))))
(define (scale a k)
  (v3 (* (vector-ref a 0) k) (* (vector-ref a 1) k) (* (vector-ref a 2) k)))
(define (normalize a)
  (let ([n (sqrt (dot a a))]) (scale a (/ 1.0 n))))
(define (sphere-hit center radius origin dir)
  (let* ([oc (sub origin center)]
         [b (dot oc dir)]
         [c (- (dot oc oc) (* radius radius))]
         [disc (- (* b b) c)])
    (if (< disc 0.0) -1.0
        (let ([t (- 0.0 (+ b (sqrt disc)))])
          (if (> t 0.001) t -1.0)))))
(define (trace-pixel px py)
  (let ([origin (v3 0.0 0.0 -3.0)]
        [dir (normalize (v3 px py 1.0))]
        [light (normalize (v3 0.5 1.0 -0.5))])
    (let loop ([k 0] [best -1.0] [bestc (v3 0.0 0.0 0.0)] [bestr 0.0])
      (if (= k 3)
          (if (< best 0.0) 0.0
              (let* ([hit (scale dir best)]
                     [n (normalize (sub hit bestc))]
                     [d (dot n light)])
                (if (> d 0.0) d 0.0)))
          (let* ([cx (- (* 1.5 (exact->inexact k)) 1.5)]
                 [center (v3 cx 0.0 1.0)]
                 [t (sphere-hit center 0.7 origin dir)])
            (if (and (> t 0.0) (or (< best 0.0) (< t best)))
                (loop (+ k 1) t center 0.7)
                (loop (+ k 1) best bestc bestr)))))))
(define (main)
  (let yloop ([y 0] [acc 0.0])
    (if (= y 40) (floor (* 1000.0 acc))
        (yloop (+ y 1)
          (let xloop ([x 0] [a acc])
            (if (= x 40) a
                (xloop (+ x 1)
                  (+ a (trace-pixel (- (/ (exact->inexact x) 20.0) 1.0)
                                    (- (/ (exact->inexact y) 20.0) 1.0))))))))))
(display (main))
|}
    {|
(define (v3 [x : Float] [y : Float] [z : Float]) : (Vectorof Float)
  (let ([v (make-vector 3 0.0)])
    (vector-set! v 0 x) (vector-set! v 1 y) (vector-set! v 2 z) v))
(define (dot [a : (Vectorof Float)] [b : (Vectorof Float)]) : Float
  (+ (* (vector-ref a 0) (vector-ref b 0))
     (+ (* (vector-ref a 1) (vector-ref b 1))
        (* (vector-ref a 2) (vector-ref b 2)))))
(define (sub [a : (Vectorof Float)] [b : (Vectorof Float)]) : (Vectorof Float)
  (v3 (- (vector-ref a 0) (vector-ref b 0))
      (- (vector-ref a 1) (vector-ref b 1))
      (- (vector-ref a 2) (vector-ref b 2))))
(define (scale [a : (Vectorof Float)] [k : Float]) : (Vectorof Float)
  (v3 (* (vector-ref a 0) k) (* (vector-ref a 1) k) (* (vector-ref a 2) k)))
(define (normalize [a : (Vectorof Float)]) : (Vectorof Float)
  (let ([n (sqrt (dot a a))]) (scale a (/ 1.0 n))))
(define (sphere-hit [center : (Vectorof Float)] [radius : Float]
                    [origin : (Vectorof Float)] [dir : (Vectorof Float)]) : Float
  (let* ([oc (sub origin center)]
         [b (dot oc dir)]
         [c (- (dot oc oc) (* radius radius))]
         [disc (- (* b b) c)])
    (if (< disc 0.0) -1.0
        (let ([t (- 0.0 (+ b (sqrt disc)))])
          (if (> t 0.001) t -1.0)))))
(define (trace-pixel [px : Float] [py : Float]) : Float
  (let ([origin (v3 0.0 0.0 -3.0)]
        [dir (normalize (v3 px py 1.0))]
        [light (normalize (v3 0.5 1.0 -0.5))])
    (let loop : Float ([k : Integer 0] [best : Float -1.0]
                       [bestc : (Vectorof Float) (v3 0.0 0.0 0.0)] [bestr : Float 0.0])
      (if (= k 3)
          (if (< best 0.0) 0.0
              (let* ([hit (scale dir best)]
                     [n (normalize (sub hit bestc))]
                     [d (dot n light)])
                (if (> d 0.0) d 0.0)))
          (let* ([cx (- (* 1.5 (exact->inexact k)) 1.5)]
                 [center (v3 cx 0.0 1.0)]
                 [t (sphere-hit center 0.7 origin dir)])
            (if (and (> t 0.0) (or (< best 0.0) (< t best)))
                (loop (+ k 1) t center 0.7)
                (loop (+ k 1) best bestc bestr)))))))
(define (main) : Float
  (let yloop : Float ([y : Integer 0] [acc : Float 0.0])
    (if (= y 40) (floor (* 1000.0 acc))
        (yloop (+ y 1)
          (let xloop : Float ([x : Integer 0] [a : Float acc])
            (if (= x 40) a
                (xloop (+ x 1)
                  (+ a (trace-pixel (- (/ (exact->inexact x) 20.0) 1.0)
                                    (- (/ (exact->inexact y) 20.0) 1.0))))))))))
(display (main))
|}

let fft =
  b "fft" "fig9" "application"
    {|
(define (make-signal n)
  (let ([v (make-vector n 0.0+0.0i)])
    (let loop ([i 0])
      (when (< i n)
        (vector-set! v i (make-rectangular (sin (* 0.3 (exact->inexact i)))
                                           (cos (* 0.7 (exact->inexact i)))))
        (loop (+ i 1))))
    v))
(define (bit-reverse! v n)
  (let loop ([i 1] [j 0])
    (when (< i n)
      (let ([j (let adjust ([j j] [bit (quotient n 2)])
                 (if (>= j bit) (adjust (- j bit) (quotient bit 2)) (+ j bit)))])
        (when (< i j)
          (let ([tmp (vector-ref v i)])
            (vector-set! v i (vector-ref v j))
            (vector-set! v j tmp)))
        (loop (+ i 1) j)))))
(define (fft! v n)
  (bit-reverse! v n)
  (let lenloop ([len 2])
    (when (<= len n)
      (let ([ang (/ -6.283185307179586 (exact->inexact len))])
        (let ([wlen (make-polar 1.0 ang)])
          (let iloop ([i 0])
            (when (< i n)
              (let jloop ([j 0] [w 1.0+0.0i])
                (when (< j (quotient len 2))
                  (let* ([u (vector-ref v (+ i j))]
                         [t (* w (vector-ref v (+ i (+ j (quotient len 2)))))])
                    (vector-set! v (+ i j) (+ u t))
                    (vector-set! v (+ i (+ j (quotient len 2))) (- u t))
                    (jloop (+ j 1) (* w wlen)))))
              (iloop (+ i len))))))
      (lenloop (* len 2)))))
(define (main)
  (let* ([n 512]
         [v (make-signal n)])
    (let loop ([k 0])
      (when (< k 20) (fft! v n) (loop (+ k 1))))
    (floor (* 1000.0 (magnitude (vector-ref v 1))))))
(display (main))
|}
    {|
(define (make-signal [n : Integer]) : (Vectorof Float-Complex)
  (let ([v (make-vector n 0.0+0.0i)])
    (let loop : Void ([i : Integer 0])
      (when (< i n)
        (vector-set! v i (make-rectangular (sin (* 0.3 (exact->inexact i)))
                                           (cos (* 0.7 (exact->inexact i)))))
        (loop (+ i 1))))
    v))
(define (bit-reverse! [v : (Vectorof Float-Complex)] [n : Integer]) : Void
  (let loop : Void ([i : Integer 1] [j : Integer 0])
    (when (< i n)
      (let ([j (let adjust : Integer ([j : Integer j] [bit : Integer (quotient n 2)])
                 (if (>= j bit) (adjust (- j bit) (quotient bit 2)) (+ j bit)))])
        (when (< i j)
          (let ([tmp (vector-ref v i)])
            (vector-set! v i (vector-ref v j))
            (vector-set! v j tmp)))
        (loop (+ i 1) j)))))
(define (fft! [v : (Vectorof Float-Complex)] [n : Integer]) : Void
  (bit-reverse! v n)
  (let lenloop : Void ([len : Integer 2])
    (when (<= len n)
      (let ([ang (/ -6.283185307179586 (exact->inexact len))])
        (let ([wlen (make-polar 1.0 ang)])
          (let iloop : Void ([i : Integer 0])
            (when (< i n)
              (let jloop : Void ([j : Integer 0] [w : Float-Complex 1.0+0.0i])
                (when (< j (quotient len 2))
                  (let* ([u (vector-ref v (+ i j))]
                         [t (* w (vector-ref v (+ i (+ j (quotient len 2)))))])
                    (vector-set! v (+ i j) (+ u t))
                    (vector-set! v (+ i (+ j (quotient len 2))) (- u t))
                    (jloop (+ j 1) (* w wlen)))))
              (iloop (+ i len))))))
      (lenloop (* len 2)))))
(define (main) : Float
  (let* ([n 512]
         [v (make-signal n)])
    (let loop : Void ([k : Integer 0])
      (when (< k 20) (fft! v n) (loop (+ k 1))))
    (floor (* 1000.0 (magnitude (vector-ref v 1))))))
(display (main))
|}

let bankers_queue =
  b "bankers-queue" "fig9" "functional DS"
    {|
(define (queue-empty) (cons '() '()))
(define (queue-balance f b)
  (if (null? f) (cons (reverse b) '()) (cons f b)))
(define (queue-snoc q x)
  (queue-balance (car q) (cons x (cdr q))))
(define (queue-head q) (car (car q)))
(define (queue-tail q)
  (queue-balance (cdr (car q)) (cdr q)))
(define (queue-empty? q) (null? (car q)))
(define (main)
  (let loop ([round 0] [acc 0])
    (if (= round 200) acc
        (loop (+ round 1)
          (let fill ([i 0] [q (queue-empty)])
            (if (< i 120)
                (fill (+ i 1) (queue-snoc q i))
                (let drain ([q q] [sum acc])
                  (if (queue-empty? q) sum
                      (drain (queue-tail q) (+ sum (queue-head q)))))))))))
(display (main))
|}
    {|
(define (queue-empty) : (Pairof (Listof Integer) (Listof Integer))
  (cons '() '()))
(define (queue-balance [f : (Listof Integer)] [b : (Listof Integer)])
  : (Pairof (Listof Integer) (Listof Integer))
  (if (null? f) (cons (reverse b) '()) (cons f b)))
(define (queue-snoc [q : (Pairof (Listof Integer) (Listof Integer))] [x : Integer])
  : (Pairof (Listof Integer) (Listof Integer))
  (queue-balance (car q) (cons x (cdr q))))
(define (queue-head [q : (Pairof (Listof Integer) (Listof Integer))]) : Integer
  (car (car q)))
(define (queue-tail [q : (Pairof (Listof Integer) (Listof Integer))])
  : (Pairof (Listof Integer) (Listof Integer))
  (queue-balance (cdr (car q)) (cdr q)))
(define (queue-empty? [q : (Pairof (Listof Integer) (Listof Integer))]) : Boolean
  (null? (car q)))
(define (main) : Integer
  (let loop : Integer ([round : Integer 0] [acc : Integer 0])
    (if (= round 200) acc
        (loop (+ round 1)
          (let fill : Integer ([i : Integer 0]
                               [q : (Pairof (Listof Integer) (Listof Integer)) (queue-empty)])
            (if (< i 120)
                (fill (+ i 1) (queue-snoc q i))
                (let drain : Integer ([q : (Pairof (Listof Integer) (Listof Integer)) q]
                                      [sum : Integer acc])
                  (if (queue-empty? q) sum
                      (drain (queue-tail q) (+ sum (queue-head q)))))))))))
(display (main))
|}

let sortedset =
  b "sortedset" "fig9" "functional DS"
    {|
(define (set-insert s x)
  (cond [(null? s) (list x)]
        [(< x (car s)) (cons x s)]
        [(= x (car s)) s]
        [else (cons (car s) (set-insert (cdr s) x))]))
(define (set-member? s x)
  (cond [(null? s) #f]
        [(< x (car s)) #f]
        [(= x (car s)) #t]
        [else (set-member? (cdr s) x)]))
(define (set-union a b)
  (cond [(null? a) b]
        [(null? b) a]
        [(< (car a) (car b)) (cons (car a) (set-union (cdr a) b))]
        [(= (car a) (car b)) (cons (car a) (set-union (cdr a) (cdr b)))]
        [else (cons (car b) (set-union a (cdr b)))]))
(define (main)
  (let loop ([round 0] [acc 0])
    (if (= round 60) acc
        (let* ([a (let build ([i 0] [s '()])
                    (if (= i 60) s (build (+ i 1) (set-insert s (modulo (* i 7) 97)))))]
               [b (let build ([i 0] [s '()])
                    (if (= i 60) s (build (+ i 1) (set-insert s (modulo (* i 11) 97)))))]
               [u (set-union a b)])
          (loop (+ round 1)
                (+ acc (+ (length u) (if (set-member? u 42) 1 0))))))))
(display (main))
|}
    {|
(define (set-insert [s : (Listof Integer)] [x : Integer]) : (Listof Integer)
  (cond [(null? s) (list x)]
        [(< x (car s)) (cons x s)]
        [(= x (car s)) s]
        [else (cons (car s) (set-insert (cdr s) x))]))
(define (set-member? [s : (Listof Integer)] [x : Integer]) : Boolean
  (cond [(null? s) #f]
        [(< x (car s)) #f]
        [(= x (car s)) #t]
        [else (set-member? (cdr s) x)]))
(define (set-union [a : (Listof Integer)] [b : (Listof Integer)]) : (Listof Integer)
  (cond [(null? a) b]
        [(null? b) a]
        [(< (car a) (car b)) (cons (car a) (set-union (cdr a) b))]
        [(= (car a) (car b)) (cons (car a) (set-union (cdr a) (cdr b)))]
        [else (cons (car b) (set-union a (cdr b)))]))
(define (main) : Integer
  (let loop : Integer ([round : Integer 0] [acc : Integer 0])
    (if (= round 60) acc
        (let* ([a (let build : (Listof Integer) ([i : Integer 0] [s : (Listof Integer) '()])
                    (if (= i 60) s (build (+ i 1) (set-insert s (modulo (* i 7) 97)))))]
               [b (let build : (Listof Integer) ([i : Integer 0] [s : (Listof Integer) '()])
                    (if (= i 60) s (build (+ i 1) (set-insert s (modulo (* i 11) 97)))))]
               [u (set-union a b)])
          (loop (+ round 1)
                (+ acc (+ (length u) (if (set-member? u 42) 1 0))))))))
(display (main))
|}

(* ------------------------------------------------------------------ *)
(* Expansion stress family (the hygiene-at-speed series)               *)
(* ------------------------------------------------------------------ *)

(* Macro-heavy programs that stress the expansion front end rather than
   the evaluator: a doubling [syntax-rules] tower (every use of [tN]
   expands to two uses of [tN-1], so one call site explodes into 2^N
   transformer applications) over a [nest] macro that winds [nvars]
   [let]-bindings around the body one macro step at a time.  The nest is
   the adversarial part for sets-of-scopes hygiene: each step re-wraps
   the whole remaining body, every binder adds a scope, and the innermost
   references carry scope sets of size O(nvars) — the naive
   copy-per-scope-op implementation degrades quadratically here, which is
   exactly what the lazy-propagation series is meant to expose (see
   docs/architecture.md, "hygiene internals").

   Each program prints [copies * (2^depth + nvars)], so the repository
   benchmark (bench/e2e) can check that the expansion was not mangled. *)

let stress_body ~depth ~nvars ~copies : string =
  let buf = Buffer.create 4096 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  add "(define-syntax-rule (inc x) (+ x 1))";
  add "(define-syntax-rule (t0 x) (inc x))";
  for i = 1 to depth do
    add "(define-syntax-rule (t%d x) (t%d (t%d x)))" i (i - 1) (i - 1)
  done;
  add "(define-syntax nest";
  add "  (syntax-rules ()";
  add "    [(_ () body) body]";
  add "    [(_ (v vs ...) body) (let ([v 1]) (nest (vs ...) body))]))";
  let vars = String.concat " " (List.init nvars (Printf.sprintf "v%d")) in
  for c = 0 to copies - 1 do
    add "(define (go%d) (nest (%s) (+ (t%d 0) %s)))" c vars depth vars
  done;
  let calls = String.concat " " (List.init copies (Printf.sprintf "(go%d)")) in
  add "(display (+ %s))" calls;
  Buffer.contents buf

(* The stress programs are untyped-only: the [typed] field holds the
   same body, but bench/e2e compiles only the untyped variant. *)
let stress name ~depth ~nvars ~copies =
  let body = stress_body ~depth ~nvars ~copies in
  let p = b name "expand" "hygiene" body body in
  let expected = copies * ((1 lsl depth) + nvars) in
  (p, string_of_int expected)

let stress_small = stress "stx-small" ~depth:4 ~nvars:96 ~copies:2
let stress_mid = stress "stx-mid" ~depth:5 ~nvars:128 ~copies:2
let stress_big = stress "stx-big" ~depth:6 ~nvars:192 ~copies:3

(** The macro-heavy stress family with each program's expected printed
    checksum (what [display] must produce if expansion is correct). *)
let expand_family : (t * string) list = [ stress_small; stress_mid; stress_big ]

let all : t list =
  [
    tak; cpstak; takl; deriv; divrec; nqueens; sum; sumfp; fib; fibfp; ack; mbrot; heapsort;
    array1;
    nbody; spectralnorm; mandelbrot; binarytrees; fannkuch;
    pseudoknot;
    raytrace; fft; bankers_queue; sortedset;
  ]
  @ List.map fst expand_family

let by_figure fig = List.filter (fun b -> String.equal b.figure fig) all
let find name = List.find (fun b -> String.equal b.name name) all
