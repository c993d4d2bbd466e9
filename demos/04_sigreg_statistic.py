"""SIGReg: a differentiable test that embeddings look isotropic Gaussian.

Random 1-D projections of the embedding cloud are compared against the
standard normal characteristic function; the statistic grows when the
cloud is shifted, stretched, or collapsed.
"""

import numpy as np

from tsrepr import sigreg as S


def main():
    m = 256  # random projection directions
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2048, 16)).astype(np.float32)

    base = float(S.epps_pulley_statistic(z, m).data)
    shifted = float(S.epps_pulley_statistic(z + 2.0, m).data)
    stretched = float(S.epps_pulley_statistic(z * 3.0, m).data)
    collapsed = float(S.epps_pulley_statistic(z * 1e-3, m).data)
    print(f"gaussian  : {base:.4f}")
    print(f"shifted   : {shifted:.4f}")
    print(f"stretched : {stretched:.4f}")
    print(f"collapsed : {collapsed:.4f}")

    diag = S.sigreg_diagnostics(z, m)
    print("effective rank of healthy cloud:", round(diag["effective_rank"], 2))
    flat = np.tile(z[:, :1], (1, 16))  # rank-1 cloud
    print("effective rank of rank-1 cloud :",
          round(S.sigreg_diagnostics(flat, m)["effective_rank"], 2))


if __name__ == "__main__":
    main()
