"""Serve recommendations online: registry, micro-batching, HTTP.

Walks the whole serving stack at ``smoke`` scale in a few seconds::

    python examples/serve_quickstart.py

1. load two (dataset, model) scenarios into one registry (the paper's
   transfer story as a serving concern),
2. answer requests through the micro-batched service API,
3. start the stdlib HTTP endpoint on an ephemeral port and query it,
4. benchmark batched top-k retrieval against a full-catalogue sort,
5. compare exact and IVF retrieval on a 20k-item catalogue.

See ``docs/serving.md`` for the architecture and the endpoint contract.
"""

import json
import urllib.request

from repro.serve import (ModelRegistry, RecommendationService,
                         compare_paths, make_server, render_comparison,
                         request_stream)


def main() -> None:
    # -- 1. one process, many scenarios -----------------------------------
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add_all("kwai_food:sasrec,bili_food:pmmrec-text")
    for info in registry.describe():
        print(f"loaded {info['dataset']}:{info['model']} "
              f"({info['num_items']} items, "
              f"index v{info['index_version']}, "
              f"{info['index_nbytes'] / 1024:.0f} KiB)")

    # -- 2. the request API ------------------------------------------------
    service = RecommendationService(registry, max_batch=16, max_wait_ms=2.0)
    scenario = registry.get("kwai_food", "sasrec")
    history = [int(i) for i in scenario.dataset.split.test[0].history]
    answer = service.recommend("kwai_food", "sasrec", history, k=5)
    print(f"\nuser history {history[-3:]} -> top-5 {answer['items']} "
          f"({answer['latency_ms']:.1f} ms)")
    repeat = service.recommend("kwai_food", "sasrec", history, k=5)
    print(f"repeat request: cached={repeat['cached']} "
          f"({repeat['latency_ms']:.1f} ms)")

    # -- 3. the HTTP endpoint ----------------------------------------------
    server = make_server(service, port=0)   # port 0 = pick a free port
    server.start_background()
    body = json.dumps({"dataset": "bili_food", "model": "pmmrec-text",
                       "history": history, "k": 5}).encode()
    request = urllib.request.Request(
        server.url + "/recommend", data=body,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        payload = json.load(response)
    print(f"\nPOST {server.url}/recommend -> items {payload['items']}")
    server.shutdown()
    server.server_close()

    # -- 4. why the serving path is shaped this way ------------------------
    recommender = scenario.recommender
    histories = request_stream(scenario.dataset, 64, seed=0)
    comparison = compare_paths(recommender, histories, k=10, batch_size=16)
    print()
    print(render_comparison(comparison, title="smoke-scale benchmark"))

    service.close()

    # -- 5. approximate retrieval at catalogue scale -----------------------
    # Past ~10k items exact scoring stops fitting the latency budget;
    # `retrieval="ivf"` probes a few k-means cells for candidates and
    # re-ranks them by genuine model scores (docs/serving.md, "Retrieval
    # backends"). On a clustered 20k-item synthetic catalogue:
    from repro.serve import (IVFIndex, bench_retrieval, render_retrieval,
                             synthetic_catalog, synthetic_queries)
    catalog = synthetic_catalog(20_000, dim=32, seed=0)
    queries = synthetic_queries(catalog, 64, seed=1)
    reports = bench_retrieval(catalog, queries, k=10,
                              backends={"exact": None,
                                        "ivf": IVFIndex(seed=0)})
    print()
    print(render_retrieval(reports, title="retrieval backends (20k items)"))


if __name__ == "__main__":
    main()
