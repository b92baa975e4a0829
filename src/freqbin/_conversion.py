"""``entanglement.conversion_phase``, kept apart in plain float arithmetic
so that ``tomo convert`` loads no numpy."""
import math


def conversion_phase(tau: float, delta_omega: float) -> float:
    """The phase delta_omega * tau mod 2 pi [rad] that ``mode_convert``
    imprints at delay ``tau`` [s] and bin splitting ``delta_omega``
    [rad/s]; ValueError unless delta_omega is finite and > 0 and
    |delta_omega tau| < 2**22 rad, below which a float step is < 1e-9 rad."""
    if not (math.isfinite(delta_omega) and delta_omega > 0.0):
        raise ValueError(f"delta_omega must be > 0 and finite, not "
                         f"{delta_omega:g}")
    angle = float(delta_omega) * float(tau)
    if not abs(angle) < 2.0 ** 22:
        raise ValueError(f"delta_omega * tau must be finite and within "
                         f"+-2**22 rad, not {angle:g} (tau = {tau:g} s)")
    return angle % math.tau
