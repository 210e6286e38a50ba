(* Alcotest runner aggregating every suite. *)

let () =
  Alcotest.run "countq"
    [
      ("rng", Test_rng.suite);
      ("stats", Test_stats.suite);
      ("sketch", Test_sketch.suite);
      ("json", Test_json.suite);
      ("heap", Test_heap.suite);
      ("parallel", Test_parallel.suite);
      ("graph", Test_graph.suite);
      ("gen", Test_gen.suite);
      ("product", Test_product.suite);
      ("bfs", Test_bfs.suite);
      ("tree", Test_tree.suite);
      ("hamilton", Test_hamilton.suite);
      ("workset", Test_workset.suite);
      ("engine", Test_engine.suite);
      ("equiv", Test_equiv.suite);
      ("event-engine", Test_event_engine.suite);
      ("shard", Test_shard.suite);
      ("dynamic", Test_dynamic.suite);
      ("route", Test_route.suite);
      ("async", Test_async.suite);
      ("trace", Test_trace.suite);
      ("metrics", Test_metrics.suite);
      ("telemetry", Test_telemetry.suite);
      ("span", Test_span.suite);
      ("faults", Test_faults.suite);
      ("explore", Test_explore.suite);
      ("oneshot", Test_oneshot.suite);
      ("order", Test_order.suite);
      ("arrow", Test_arrow.suite);
      ("counts", Test_counts.suite);
      ("counting", Test_counting.suite);
      ("bitonic", Test_bitonic.suite);
      ("network", Test_network.suite);
      ("sweep", Test_sweep.suite);
      ("sweep-runner", Test_sweep_runner.suite);
      ("fetch-add", Test_fetch_add.suite);
      ("periodic", Test_periodic.suite);
      ("central-queue", Test_central_queue.suite);
      ("token-ring", Test_token_ring.suite);
      ("nn", Test_nn.suite);
      ("runs", Test_runs.suite);
      ("exact", Test_exact.suite);
      ("bounds", Test_bounds.suite);
      ("observed", Test_observed.suite);
      ("multicast", Test_multicast.suite);
      ("growth", Test_growth.suite);
      ("scenario", Test_scenario.suite);
      ("load", Test_load.suite);
      ("core", Test_core.suite);
      ("integration", Test_integration.suite);
      ("printers", Test_printers.suite);
    ]
