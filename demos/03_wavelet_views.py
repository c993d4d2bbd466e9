"""Dual wavelet views: smoothed teacher, degraded student.

The teacher soft-thresholds every detail band (denoising); the student
adds uniform noise to every detail band. Both come from the same
periodized Daubechies DWT, which reconstructs exactly.
"""

import numpy as np

from tsrepr import augment as A


def main():
    rng = np.random.default_rng(3)
    t = np.arange(128) / 128.0
    x = np.sin(2 * np.pi * 5 * t) + 0.4 * rng.standard_normal(128)

    pyr = A.dwt_forward(x, A.LEVEL, A.FAMILY)
    print("detail band lengths:", [d.shape[0] for d in pyr.details])
    print("reconstruction err :", np.abs(A.dwt_inverse(pyr) - x).max())

    teacher = A.teacher_view(pyr)
    student = A.student_view(pyr, rng)
    print("input    rms:", float(np.sqrt(np.mean(x ** 2))))
    print("teacher  rms:", float(np.sqrt(np.mean(teacher ** 2))))
    print("student  rms:", float(np.sqrt(np.mean(student ** 2))))

    # batch API used by the joint-embedding objectives
    batch = rng.standard_normal((4, 64)).astype(np.float32)
    pair = A.make_view_pair(batch, rng)
    print("view pair shapes:", pair.teacher_view.shape,
          pair.student_view.shape)


if __name__ == "__main__":
    main()
