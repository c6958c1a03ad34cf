"""Golden physics table: the ten curated browser runs on ReferenceEngine.

Both engine types share everything below the loop -- the cache/bus/CPI
equilibrium, the power, leakage and thermal models, task progress --
so comparing one engine with the other cannot see a change there.
This table pins ``float.hex`` of each run's load time, energy, final
and average temperature, and of every task's instructions and L2
misses, for the ten ``BROWSER_CASES`` of ``test_engine_equivalence``;
``test_fast_matches_reference`` checks its reference run against it
with :func:`golden_bits`, so the table costs no runs of its own.  A
change that reorders one floating-point operation in that shared
physics moves some of these bits; such a change must bump
``CALIBRATION_TAG`` (cached artifacts were computed with the old
bits), and only then is the table regenerated.

The values are CPython 3.10/3.11 arithmetic.  From 3.12 on, builtin
``sum`` over floats is compensated (Neumaier summation), which rounds
the equilibrium's totals differently, so the table is not checked
there (:data:`GOLDEN_APPLIES`).
"""

import sys

from repro.experiments.cache import CALIBRATION_TAG

#: The calibration the table was taken at.
GOLDEN_TAG = "dora-repro-v11"

#: Case id -> ((load time, energy, final temperature, average
#: temperature), {task id: (instructions, L2 misses)}), as float.hex.
GOLDEN = {
    "amazon+solo-perf-dt2ms-tr": (
        ("0x1.4fdf3b645a1cfp-2", "0x1.3378a7af00371p+0",
         "0x1.81acc0dee880dp+5", "0x1.82164579c37c3p+5"),
        {
            "browser-helper:amazon": ("0x1.16348e8000000p+27", "0x1.ed5b28e5c4d4dp+18"),
            "browser-main:amazon": ("0x1.8d6fa70000006p+28", "0x1.1f19867b107d0p+20"),
        },
    ),
    "amazon+solo-interactive-dt2ms-tr": (
        ("0x1.78d4fdf3b645fp-2", "0x1.30208c836eb34p+0",
         "0x1.7dd08997053d1p+5", "0x1.7e3ae79b0ac57p+5"),
        {
            "browser-helper:amazon": ("0x1.16348e7fffffep+27", "0x1.e72cd74f22e35p+18"),
            "browser-main:amazon": ("0x1.8d6fa70000008p+28", "0x1.1ee5219435fa5p+20"),
        },
    ),
    "amazon+solo-ondemand-dt2ms-notr": (
        ("0x1.604189374bc6fp-2", "0x1.35ab5a7327ec7p+0",
         "0x1.807eb64bb7cc3p+5", "0x1.80bbd0a8729b8p+5"),
        {
            "browser-helper:amazon": ("0x1.16348e8000000p+27", "0x1.e8a7f79a996ccp+18"),
            "browser-main:amazon": ("0x1.8d6fa70000006p+28", "0x1.1d385710f59ccp+20"),
        },
    ),
    "amazon+solo-mid-dt1.7ms-tr": (
        ("0x1.2b6ae7d566cebp-1", "0x1.1d59318196aeep+0",
         "0x1.68940e949672bp+5", "0x1.7486c0b7973e0p+5"),
        {
            "browser-helper:amazon": ("0x1.16348e7fffffep+27", "0x1.ecf91d114951bp+18"),
            "browser-main:amazon": ("0x1.8d6fa7000002fp+28", "0x1.1eb5f26d227ebp+20"),
        },
    ),
    "amazon+backprop-perf-dt2ms-tr": (
        ("0x1.8b43958106253p-2", "0x1.f974a23a0fc63p+0",
         "0x1.90e468fd4be06p+5", "0x1.8a207010c307dp+5"),
        {
            "browser-helper:amazon": ("0x1.16348e8000007p+27", "0x1.921d3297b88efp+19"),
            "browser-main:amazon": ("0x1.8d6fa70000004p+28", "0x1.0440f1a7d9cffp+21"),
            "kernel:backprop": ("0x1.0efe449e0ad0cp+28", "0x1.b9387da3451a3p+21"),
        },
    ),
    "amazon+backprop-interactive-dt2ms-notr": (
        ("0x1.b4395810624e3p-2", "0x1.f05a9b0145356p+0",
         "0x1.8c8ba84df1de1p+5", "0x1.8517b40e54751p+5"),
        {
            "browser-helper:amazon": ("0x1.16348e8000006p+27", "0x1.91433eb1f875cp+19"),
            "browser-main:amazon": ("0x1.8d6fa70000004p+28", "0x1.0431d532941e0p+21"),
            "kernel:backprop": ("0x1.0fe7d69527fcbp+28", "0x1.beaf1fdc2f0e7p+21"),
        },
    ),
    "amazon+backprop-alternator-dt2ms-tr": (
        ("0x1.ced916872b027p-2", "0x1.d79f444ba8cd0p+0",
         "0x1.87044d07d2061p+5", "0x1.84fd3f6dcd12fp+5"),
        {
            "browser-helper:amazon": ("0x1.16348e8000002p+27", "0x1.93ed8ed7f731dp+19"),
            "browser-main:amazon": ("0x1.8d6fa70000002p+28", "0x1.05905792326d8p+21"),
            "kernel:backprop": ("0x1.0f38f3d38c694p+28", "0x1.bf9976f6d5908p+21"),
        },
    ),
    "espn+needleman-wunsch-interactive-dt2ms-tr": (
        ("0x1.5ef9db22d0da1p+1", "0x1.bab4e25c42f03p+3",
         "0x1.c85d918f695dep+5", "0x1.b07c6f0e31305p+5"),
        {
            "browser-helper:espn": ("0x1.1099d7c800009p+30", "0x1.25daa790bf505p+22"),
            "browser-main:espn": ("0x1.856e0fafffff8p+31", "0x1.7d544ada7f11bp+23"),
            "kernel:needleman-wunsch": (
                "0x1.9b1de3498e13fp+30", "0x1.9b0d69729523ap+24"
            ),
        },
    ),
    "espn+needleman-wunsch-perf-dt1.7ms-notr": (
        ("0x1.59fbe76c8b498p+1", "0x1.bc5cf9b1c9438p+3",
         "0x1.ca58d8e8988a4p+5", "0x1.b45a00c26e826p+5"),
        {
            "browser-helper:espn": ("0x1.1099d7c800009p+30", "0x1.261cc97e951d1p+22"),
            "browser-main:espn": ("0x1.856e0fb00008ap+31", "0x1.7e3bba7314c13p+23"),
            "kernel:needleman-wunsch": (
                "0x1.95f436b612392p+30", "0x1.9d17d0c3855d4p+24"
            ),
        },
    ),
    "espn+needleman-wunsch-mid-dt2ms-tr": (
        ("0x1.2e353f7ced7c7p+2", "0x1.6c25755d6df40p+3",
         "0x1.3b961c6204a82p+5", "0x1.58eb5c3ab0828p+5"),
        {
            "browser-helper:espn": ("0x1.1099d7c800012p+30", "0x1.27e4a8a898decp+22"),
            "browser-main:espn": ("0x1.856e0faffffb6p+31", "0x1.81674a0b11690p+23"),
            "kernel:needleman-wunsch": (
                "0x1.a6b99012d0061p+30", "0x1.abb2ef23359d2p+24"
            ),
        },
    ),
}

#: Builtin ``sum`` of floats is compensated from Python 3.12 on.
GOLDEN_APPLIES = sys.version_info < (3, 12)


def golden_bits(result):
    """``result`` in the shape of a :data:`GOLDEN` entry."""
    return (
        (
            result.load_time_s.hex(),
            result.energy_j.hex(),
            result.final_temperature_c.hex(),
            result.avg_temperature_c.hex(),
        ),
        {
            task_id: (summary.instructions.hex(), summary.l2_misses.hex())
            for task_id, summary in result.task_summaries.items()
        },
    )


def test_table_is_for_this_calibration():
    assert CALIBRATION_TAG == GOLDEN_TAG, (
        "the calibration moved: regenerate GOLDEN at the new tag"
    )
