let () =
  Alcotest.run "bandwidth_repro"
    (Test_graph.suites @ Test_ir.suites @ Test_machine.suites
   @ Test_exec.suites @ Test_analysis.suites @ Test_transform.suites
   @ Test_workloads.suites @ Test_fusion.suites @ Test_core.suites
   @ Test_reuse.suites @ Test_packing.suites @ Test_compile.suites
   @ Test_cache_equiv.suites @ Test_trace_store.suites @ Test_misc.suites
   @ Test_obs.suites @ Test_qa.suites @ Test_predict.suites
   @ Test_serve.suites @ Test_lang.suites @ Test_search.suites
   @ Test_pins.suites)
