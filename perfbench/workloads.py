"""The benchmark's workloads: which checks, which prime window per seed, and
the sha256 of the JSONL stdout each window must produce.

A seed picks one of a workload's windows (seed modulo their number); seed 0
is the named window.  The windows of one workload stay in its regime and
differ in work by about 1%, so a seed changes the rows and their digest but
not what the workload measures:

- catalog-small moves its low end over the first primes (7..31); the cost
  sits in the primes near 500.
- catalog-bernoulli takes 7 consecutive primes ending at 997, 991 or 983,
  all below X_TABLE_LIMIT = 1000, so the Bernoulli table always runs.
- main-large takes 22 consecutive primes near 10^4, above the limit, so the
  table never runs.

Every digest was recorded from the seed implementation with
SUPERCONG_KERNELS=py; stdout does not depend on --jobs.
"""

from __future__ import annotations

from dataclasses import dataclass

MAIN_CHECKS = "eq-1-0,eq-1-1,thm11-full,thm11-half,thm12,lem26,lem-bridge"


@dataclass(frozen=True)
class Workload:
    name: str
    checks: str
    jobs: int
    why: str
    # (lo, hi, sha256 of stdout) per window; index 0 is the named window
    windows: tuple[tuple[int, int, str], ...]

    def window(self, seed: int) -> tuple[int, int, str]:
        return self.windows[seed % len(self.windows)]

    def verify_argv(self, seed: int, jobs: int | None = None) -> list[str]:
        """Arguments after `python -m supercong.cli` for one timed process."""
        lo, hi, _ = self.window(seed)
        return [
            "verify", "--format", "jsonl", "--checks", self.checks,
            "--primes", f"{lo}..{hi}", "--jobs", str(self.jobs if jobs is None else jobs),
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "catalog-small",
            "all",
            1,
            "full catalog over 92 cheap primes: per-prime setup, small Bernoulli tables, PAdic glue and rendering of 12k rows",
            (
                (7, 500, "fae1dfe9810f9bb1ef33f4cc729543946a846c2a946b424b8830becea44e3b53"),
                (11, 500, "fc481ea10d8a7f0e222058ad40a7014cdbec8c6ce758403b73b470cc6e8eaa94"),
                (13, 500, "90b2e76fe4e6ceecad1bafcf8c8445eec43b16e980188911d83adc4b969c4a13"),
                (17, 500, "3a00a16553ec3600bd0bbf5a73f6cf47626be67ec89ea6ebba0de3f41c0e6217"),
                (19, 500, "5add28442cca130fd409c20cc17987c9fa8be7cca642c41d3e2c57d0539b3e74"),
                (23, 500, "2ca714bf3a2b99894ac6e2799cc7d8aa44fd51c73fb21c4865bda550bb71ecb3"),
                (29, 500, "548dcd308e53e9cab8dd4fbd603637ccee4b3328ff0fde3a48adcfa51d4cb99e"),
                (31, 500, "9c3ab0ca83df0c83cb5a3227793a93ee9836c140a0a50cb1711f68ee5fb7cd8c"),
            ),
        ),
        Workload(
            "catalog-bernoulli",
            "all",
            1,
            "full catalog over the 7 largest primes below 1000: the O(p^2) Bernoulli table dominates",
            (
                (950, 1000, "ac9ee70799f8543b06eff2ac46911ed502c6d4198f76e19ea4d5ca3333457fe7"),
                (947, 991, "df84b7af3b1369c99a63091a2a3b5b1e158bae6397e227dd13c511186976633e"),
                (941, 983, "9535dc9c75c9f689c154f6de8ea076c7affd7b94bf2637c557358a3cb758e696"),
            ),
        ),
        Workload(
            "main-large",
            MAIN_CHECKS,
            2,
            "main mod-p^4 checks over 22 primes near 10^4 on a 2-process pool: sum kernels and pool, no Bernoulli table",
            (
                (9800, 10007, "c4a25678f4182e884eb1ab2e72b26642e9dc71cea9b1b8e06db5385673bdc9bd"),
                (9791, 9973, "421e43bc8d34b77d6f5f65d3db91364c39ddf35996162e2f1304165e795703e6"),
                (9787, 9967, "1c3cfaba23d92a4f91cd9cdb4c5cfd81f45c5cf23c43c70969487363f79e0907"),
                (9781, 9949, "755dd8b0e61c5d120322df48ff0ea543d03faa88981087dcbd80ea0f1ecf8758"),
                (9769, 9941, "44c40e598596dbc13eeaa6e3507b6375c8997ad5d21ada86d4ab2cea1c446020"),
                (9767, 9931, "c20c1f1acda850f5a82d80f08237c8776af3158d5e79d441da7acf24c7d239e4"),
                (9749, 9929, "eae0ba234d6fac4fb0a62a9734378607c9b92342901447896691a23930007ff0"),
                (9743, 9923, "99f7a3c81e9a1be2fbce3b1eec96e049595240291af8b9f49a3d81145145c744"),
            ),
        ),
    )
}
