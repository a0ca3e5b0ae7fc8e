#lang racket
;; The provider of ../macro-secret.scm.  A macro-defining macro
;; introduces a definition `secret` and a macro `get-secret` whose
;; template names it; the module's own `secret` sits beside them.
(define-syntax-rule (make-secret-macro get)
  (begin
    (define secret 'macro-secret)
    (define-syntax-rule (get) secret)))
(make-secret-macro get-secret)
(define secret 'user-secret)
(provide get-secret)
