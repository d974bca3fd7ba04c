(** Entry point for the test suite: aggregates the per-module suites. *)

let () =
  Alcotest.run "ucqc"
    (Test_util.suite @ Test_bigint.suite @ Test_graph.suite
   @ Test_hypergraph.suite @ Test_relational.suite @ Test_hom.suite
   @ Test_db.suite @ Test_cq.suite @ Test_ucq.suite @ Test_scomplex.suite
   @ Test_reduction.suite @ Test_wl.suite @ Test_meta.suite
   @ Test_frontend.suite @ Test_approx.suite @ Test_dynamic.suite
   @ Test_runtime.suite @ Test_pool.suite @ Test_telemetry.suite
   @ Test_delta.suite @ Test_analysis.suite @ Test_optimize.suite
   @ Test_session.suite @ Test_server.suite @ Test_obs.suite @ Test_engine.suite)
