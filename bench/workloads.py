"""Benchmark workloads: CLI flag sets for `prmimo.cli.main`.

Every workload uses 32x8 half-wavelength arrays, a 3 degree ray spread and
all three schemes. The benchmark seed becomes the campaign's `--seed`; the
program receives nothing but the generated flags. Why each workload exists
is recorded in `bench/NOTES.md`.
"""

from dataclasses import dataclass

# Campaign seed of the pinned output-check reference (the CLI default).
DEFAULT_SEED = 12345
SCHEMES = "physical,pattern,ideal"
NT, NR = 32, 8
XI_DEG = 3.0
SPACING = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    ncl: int
    nray: int
    condition: str
    snr_db: str
    workers: int
    # Trials per timed `main()` call, sized for roughly 1.5 s per call.
    trials: int
    # Trials of the untimed warm-up campaign checked against the pinned
    # reference at DEFAULT_SEED.
    check_trials: int

    def flags(self, seed, trials, workers=None):
        return [
            "--nt", str(NT),
            "--nr", str(NR),
            "--ncl", str(self.ncl),
            "--nray", str(self.nray),
            "--xi-deg", str(XI_DEG),
            "--spacing", str(SPACING),
            "--condition", self.condition,
            "--snr-db", self.snr_db,
            "--schemes", SCHEMES,
            "--trials", str(trials),
            "--seed", str(seed),
            "--workers", str(self.workers if workers is None else workers),
        ]

    def check_flags(self):
        return self.flags(DEFAULT_SEED, self.check_trials)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ref_ill", ncl=10, nray=8, condition="ill", snr_db="-10:5:20",
                 workers=1, trials=40, check_trials=6),
        Workload("dense_ncl20", ncl=20, nray=8, condition="ill", snr_db="-10:5:20",
                 workers=1, trials=16, check_trials=3),
        Workload("sweep_w2", ncl=4, nray=2, condition="good", snr_db="-10:1:30",
                 workers=2, trials=400, check_trials=60),
        Workload("ref_w2", ncl=10, nray=8, condition="ill", snr_db="-10:5:20",
                 workers=2, trials=16, check_trials=4),
    )
}
