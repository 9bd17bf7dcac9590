"""Default model parameters (dimensionless units, inter-cell coupling = 1)."""

# All energies and rates are expressed relative to the nearest-neighbour
# inter-cell coupling, with k_B = 1 and unit cell spacing.
DEFAULTS = {
    "delta_e": 1.0,         # on-site detuning between neighbouring cells
    "e0": 100.0,            # energy offset of the excited manifold
    "eg": 0.0,              # ground-state energy
    "ja": 1.0,              # inter-cell coupling scale (fixed by rescaling)
    "jb": 1.0,              # intra-cell coupling scale
    "gamma_rad": 0.01,      # collective radiative decay rate
    "gamma_nr": 0.0,        # per-site non-radiative decay rate
    "gamma_phonon": 0.01,   # site-phonon coupling rate
    "temperature": 2.5875,  # phonon bath temperature
    "bath_width": 0.4,      # phonon spectral peak width
    "gamma_inj": 1e-6,      # total injection rate (split over first-cell sites)
    "gamma_ext": 0.021,     # per-site extraction rate (last cell)
}

# A state counts as dark when its brightness falls below this fraction of the
# brightest state.
DARK_THRESHOLD = 1e-6

# Shortest chain length included in exponential fits.  Very short chains are
# boundary dominated: the upper eigenstate band still reaches the extraction
# cell, which inflates fitted decay exponents well above the asymptotic value.
FIT_MIN_CELLS = 6
