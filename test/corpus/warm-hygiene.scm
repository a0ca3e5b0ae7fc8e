#lang racket
;; Macro binders that share names with user binders, and user definitions
;; that shadow a name a macro takes from the language.  Each line must
;; print the same uncached, cold and warm (from the artifact store); the
;; program ends in an error, like every corpus program.

;; a macro's temporary over a user `t`: prints 5
(define-syntax my-or
  (syntax-rules ()
    [(_ a b) (let ([t a]) (if t t b))]))
(define t 5)
(display (my-or #f t))
(newline)

;; a macro's temporary over a user `tmp`: prints (2 1)
(define-syntax swap!
  (syntax-rules ()
    [(_ a b) (let ([tmp a]) (set! a b) (set! b tmp))]))
(define tmp 1)
(define y 2)
(swap! tmp y)
(display (list tmp y))
(newline)

;; a macro-introduced definition next to a user `helper`:
;; prints (#<procedure:helper> 2)
(define-syntax def-helper
  (syntax-rules ()
    [(_ get) (begin (define (helper x) x) (define (get) helper))]))
(def-helper get-helper)
(define helper 2)
(display (list (get-helper) helper))
(newline)

;; a user `append` under quasiquote, which splices with the language's
;; `append`: prints (1 2 3)
(define (append a b) 'mine)
(define xs '(2 3))
(display `(1 ,@xs))
(newline)

;; a local named like a core form: prints (quote)
(define-syntax q
  (syntax-rules ()
    [(_ x) '(x)]))
(define (f quote) (q quote))
(display (f 3))
(newline)

;; a macro's named-let `loop` next to a user `loop`:
;; prints (5 #<procedure:loop>)
(define-syntax count-to
  (syntax-rules ()
    [(_ n k) (let loop ([i 0]) (if (< i n) (loop (+ i 1)) (list i k)))]))
(define (loop) 'user)
(display (count-to 5 loop))
(newline)

;; the macro's helper takes one argument: fails with helper: arity mismatch
((get-helper))
