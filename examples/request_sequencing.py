#!/usr/bin/env python3
"""Request sequencing: deflated power iteration with a server-resident matrix.

The workload: estimate the top three eigenvalues of a large symmetric
matrix by power iteration with deflation — dozens of matrix-vector
products against the *same* matrix.  Brokering each product separately
would re-ship the matrix every call; a sequence asks the agent once for
its best server, stores the matrix there, and pins every product to it
with the ``DataHandle`` the store returned.

Run:  python examples/request_sequencing.py
"""

import numpy as np

from repro import standard_testbed


def main() -> None:
    tb = standard_testbed(n_servers=3, seed=21, bandwidth=1.25e6)  # 10 Mb/s
    tb.settle()
    wait = tb.transport.run_until
    client = tb.client("c0")

    # a symmetric matrix with a known, well-separated spectrum
    rng = np.random.default_rng(21)
    n = 384
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = np.concatenate([[50.0, 30.0, 18.0], rng.uniform(0.1, 5.0, n - 3)])
    a = (q * spectrum) @ q.T

    best = wait(client.query_candidates("blas/dgemv", {"m": n, "n": n}))[0]
    print(f"sequence pinned to server {best.server_id!r}")
    a_ref = wait(client.store(best.address, "A", a))
    print(f"matrix shipped once: {a_ref.nbytes / 1e6:.2f} MB\n")

    start = tb.kernel.now
    eigenvalues = []
    basis: list[np.ndarray] = []
    for which in range(3):
        x = rng.standard_normal(n)
        lam = 0.0
        for _ in range(40):
            # deflate against converged eigenvectors, locally (cheap)
            for v_known in basis:
                x -= (v_known @ x) * v_known
            x /= np.linalg.norm(x)
            handle = client.submit(  # remote matvec
                "blas/dgemv", [a_ref, x], server=best.address,
                server_id=best.server_id, payloads={"A": a},
            )
            (y,) = wait(handle.promise)
            lam = float(x @ y)
            x = y
        x /= np.linalg.norm(x)
        basis.append(x)
        eigenvalues.append(lam)
        print(f"eigenvalue {which + 1}: {lam:10.4f}   "
              f"(truth {sorted(spectrum)[::-1][which]:10.4f})")
    elapsed = tb.kernel.now - start

    matvecs = 3 * 40
    resend_cost = matvecs * (n * n * 8) / 1.25e6  # re-shipping A each call
    print(f"\n{matvecs} remote matvecs in {elapsed:.2f} virtual s "
          f"(sequenced)")
    print(f"re-shipping the matrix each call would have spent "
          f"~{resend_cost:.0f} s on the wire alone")
    wait(client.delete_stored(best.address, "A"))
    print("matrix deleted; server cache empty:",
          tb.server(best.server_id).cached_objects == 0)


if __name__ == "__main__":
    main()
