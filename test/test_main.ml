(** Test runner: all suites. *)

let () =
  Alcotest.run "liblang"
    [
      ("reader", Test_reader.suite);
      ("syntax-objects", Test_stx.suite);
      ("runtime", Test_runtime.suite);
      ("evaluator", Test_interp.suite);
      ("expander", Test_expander.suite);
      ("modules", Test_modules.suite);
      ("contracts", Test_contracts.suite);
      ("types", Test_types.suite);
      ("typechecker", Test_check.suite);
      ("occurrence-typing", Test_occurrence.suite);
      ("boundary", Test_boundary.suite);
      ("optimizer", Test_optimize.suite);
      ("analysis", Test_analysis.suite);
      ("languages", Test_langs.suite);
      ("diagnostics", Test_diagnostics.suite);
      ("observe", Test_observe.suite);
      ("extra", Test_extra.suite);
      ("properties", Test_props.suite);
      ("hygiene", Test_hygiene.suite);
      ("pool", Test_pool.suite);
      (* last: these tests reset the module registry between runs to
         simulate fresh processes *)
      ("compiled", Test_compiled.suite);
      ("matrix", Test_matrix.suite);
      ("server", Test_server.suite);
      ("backend", Test_backend.suite);
    ]
