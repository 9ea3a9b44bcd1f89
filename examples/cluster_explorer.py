#!/usr/bin/env python
"""Inspect the offline stage: clusters, medoids, and the tree (Fig 3).

Trains the model on the full suite and prints what the offline stage
learned: each cluster's members and medoid, the silhouette of the
clustering, the fitted regression summaries for one cluster, and the
Figure 3-style classification tree.

Run:  python examples/cluster_explorer.py
"""

from repro import ProfilingLibrary, TrinityAPU, build_suite, train_model


def main() -> None:
    apu = TrinityAPU(seed=0)
    library = ProfilingLibrary(apu, seed=0)
    suite = build_suite()

    print(f"Characterizing all {len(suite)} kernels on all 42 "
          f"configurations ...")
    model = train_model(library, list(suite))
    clustering = model.clustering

    print(f"\n{clustering.n_clusters} clusters "
          f"(PAM k-medoids, silhouette {clustering.silhouette:.3f}):")
    for c in range(clustering.n_clusters):
        members = clustering.members(c)
        print(f"\ncluster {c}: {len(members)} kernels, "
              f"medoid = {clustering.medoid_uids[c]}")
        for uid in sorted(members)[:8]:
            print(f"    {uid}")
        if len(members) > 8:
            print(f"    ... and {len(members) - 8} more")

    first = min(model.cluster_models)
    print(f"\nRegression summary for cluster {first} (CPU device):")
    print(model.cluster_models[first].cpu.perf_ratio.summary())
    print()
    print(model.cluster_models[first].cpu.power.summary())

    print("\nClassification tree (paper Figure 3):")
    print(model.classifier.render())


if __name__ == "__main__":
    main()
