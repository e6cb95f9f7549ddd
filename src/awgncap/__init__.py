"""Capacity bounds for discrete-time amplitude-constrained AWGN channels.

Upper bounds come from a dual divergence expression with a mixed
uniform-ball / Gaussian-shell test density (McKellips-type, refined, and
min-max variants); lower bounds from explicit constellations and the
entropy-power inequality.  Rates are bits per n-dimensional channel use
with SNR P = A^2/n at unit noise variance per dimension.
"""

from .specfun import (binary_entropy_nats, gamma_half, gauss_pdf, q_func,
                      tilde_i_n, tilde_i_n_scaled)
from .radial import QuadratureError, RadialFunctions, k_n_closed, vol_ball
from .upper_bounds import (BoundPoint, ChannelConfig, MinmaxDetail,
                           amplitude_threshold, avg_power, beta_star, d_n,
                           envelope, mckellips_nd, minmax_dual,
                           minmax_dual_detail, refined_1d, refined_nd)
from .lower_bounds import (AnalyticalBound, Constellation,
                           ConstellationMoments, MiEstimate,
                           a_n_constellation, analytical_lower_bound,
                           constellation_mi, constellation_moments,
                           delta_for_alpha, pam_lower_bound_1d,
                           ring_constellation, volume_lower_bound)

__version__ = "0.1.0"
