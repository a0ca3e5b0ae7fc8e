#lang racket
;; A required macro's template means what it meant where the macro was
;; made: `get-secret` names the `secret` its macro-defining macro
;; introduced, not the provider's own `secret`.  It prints macro-secret
;; uncached, cold, warm, and compiled from source against the provider's
;; artifact (edit this file after a cold run); the program ends in an
;; error, like every corpus program.
(require "lib/macro-secret.scm")
(display (get-secret))
(newline)

;; fails with car: contract violation
(car '())
