"""Golden pins: the batched renewal kernel's exact output bits.

``float.hex`` of every solution field for a fixed mixed task list on a
30-day horizon: visit grids V = 2880 (15-minute scrub) and V = 96
(7.5-hour scrub), every ``(t, theta)`` with ``t`` in {2, 3, 4}, two
temperatures, and 256- and 576-cell lines.  The values were recorded from
the per-grid kernel that preceded the ``(t, theta, cells)`` grouping, so
they pin that a kernel rewrite moved no bit of any expectation; the
persisted propagation memo (``RENEWAL_MEMO_FORMAT``) and every exact
report digest downstream rely on that.  They hold on x86-64 with numpy's
default SIMD dispatch; a platform whose ``log``/``exp`` round differently
would need its own recording.
"""

from __future__ import annotations

from repro import units
from repro.params import CellSpec
from repro.sim.analytic import CrossingDistribution
from repro.sim.renewal_batch import (
    RenewalTask,
    clear_propagation_cache,
    finite_horizon_batch,
)

HORIZON = 30 * units.DAY

#: ``(visits, expected_ue, expected_writes, no_ue_probability)`` per task,
#: in :func:`_tasks` order.
GOLDEN = [
    (2880, "0x1.285d9011a7635p-5", "0x1.bc38393e3d634p+6", "0x1.edcf9a0713b9cp-1"),
    (2880, "0x1.b2bd6d5fca7d8p-2", "0x1.e4e9b15795d0ep+7", "0x1.4ed4d47357b53p-1"),
    (2880, "0x1.266095c34cd2fp-2", "0x1.b726a94c6ba4fp+7", "0x1.8024d0bafd221p-1"),
    (2880, "0x1.9f811f7dcab11p+1", "0x1.d36da22f6f4f0p+8", "0x1.3d42cc587548cp-5"),
    (2880, "0x1.e8900dbebf897p-1", "0x1.93217c5ff632fp+5", "0x1.8c9e8d049a577p-2"),
    (2880, "0x1.b264db36e8b52p+2", "0x1.fabdcb6e556dbp+6", "0x1.1589c12c3745ap-10"),
    (2880, "0x1.e48fab6d61d53p+1", "0x1.8ba365d93b5cdp+6", "0x1.8688946f395bcp-6"),
    (2880, "0x1.a229477d4e91ap+4", "0x1.db0e77d9fee62p+7", "0x1.bedc4c124c691p-37"),
    (2880, "0x1.b7053af621616p-12", "0x1.bc5cd72ef0e0ep+6", "0x1.ffc922509422dp-1"),
    (2880, "0x1.74c9a35f24546p-7", "0x1.e5bd3ce7b8395p+7", "0x1.fa354921e5254p-1"),
    (2880, "0x1.b71272261c7ddp-8", "0x1.b7b66b7268f9ap+7", "0x1.fc94cdf686cbap-1"),
    (2880, "0x1.65b347cec18a5p-3", "0x1.d67fee05710adp+8", "0x1.adf149b0f974fp-1"),
    (2880, "0x1.a3a4a90191498p-7", "0x1.9aa9824c6118cp+5", "0x1.f97c506b1b98cp-1"),
    (2880, "0x1.e5ebbb8688420p-3", "0x1.0a7891a20058bp+7", "0x1.93d55d9cdca6cp-1"),
    (2880, "0x1.9f603e929cbb2p-4", "0x1.9a600b2501c5ap+6", "0x1.cea5196345c33p-1"),
    (2880, "0x1.cf57595146d00p+0", "0x1.05da790b8311bp+8", "0x1.4e8ae01ad71c4p-3"),
    (2880, "0x1.c8463961bdd48p-2", "0x1.d66e3b46859dbp+4", "0x1.488cbc2fab841p-1"),
    (2880, "0x1.0c971300603c9p+2", "0x1.5414e22ff234dp+6", "0x1.db357c4c2de26p-7"),
    (2880, "0x1.c5e2b56118dc5p+0", "0x1.d13241812084ep+5", "0x1.61e4bf3d55fe5p-3"),
    (2880, "0x1.049db00765528p+4", "0x1.42dc16d148376p+7", "0x1.0cf4684c53d78p-24"),
    (2880, "0x1.081092638d6bbp-18", "0x1.bc5d43e82f07ep+6", "0x1.ffff7bf7c802ep-1"),
    (2880, "0x1.03217723c4240p-12", "0x1.e5c2efaa16c0bp+7", "0x1.ffdf9cd6f5d29p-1"),
    (2880, "0x1.0a18ae8e5e4f7p-13", "0x1.b7b9c8f5c25cdp+7", "0x1.ffef5eba94cbcp-1"),
    (2880, "0x1.f3f793081d78dp-8", "0x1.d6aab076d7dbcp+8", "0x1.fc1bdde0d8300p-1"),
    (2880, "0x1.1c5ef9643d162p-13", "0x1.9ac3757f32d58p+5", "0x1.ffee3a6103a18p-1"),
    (2880, "0x1.9ebc76a627bb3p-8", "0x1.0aeecf17f4ac3p+7", "0x1.fcc524a54e24bp-1"),
    (2880, "0x1.19cf39b414013p-9", "0x1.9ac5af9633013p+6", "0x1.fee67f15b8365p-1"),
    (2880, "0x1.8a774a4ffbcf7p-4", "0x1.079128f02f555p+8", "0x1.d0fd6159cf55fp-1"),
    (2880, "0x1.4923e25d0dd85p-8", "0x1.dd7ac1ede6c2fp+4", "0x1.fd6f6b086c990p-1"),
    (2880, "0x1.18f1f1e520646p-3", "0x1.6451da6705a9bp+6", "0x1.be5b9a090e11ep-1"),
    (2880, "0x1.463075d620c95p-5", "0x1.df0fcb0eb3bf5p+5", "0x1.ec050ede3e1d4p-1"),
    (2880, "0x1.0d71191204817p+0", "0x1.6154eaa010d9cp+7", "0x1.6526fa3e4ab0ep-2"),
    (2880, "0x1.d32cd59e6762ep-3", "0x1.2eceb6c1accf9p+4", "0x1.97df81f3485e6p-1"),
    (2880, "0x1.612ed0e648b00p+1", "0x1.f0ef55a94a3bbp+5", "0x1.fb9a823f987b8p-5"),
    (2880, "0x1.d0f694da163fep-1", "0x1.2cdbce2cc2a06p+5", "0x1.9fdc5009b2be8p-2"),
    (2880, "0x1.5919bdd14ad38p+3", "0x1.dc6127134aa6ap+6", "0x1.233e5bed5846ep-16"),
    (96, "0x1.91098da9c935ap+3", "0x1.b621ce8aeb867p+5", "0x1.8fd1d750e88d3p-18"),
    (96, "0x1.ba8f13cbadcf1p+5", "0x1.1ef4b4150dbc3p+5", "0x1.a2d9739991cd2p-40"),
    (96, "0x1.434b47b8f732ap+5", "0x1.6f461283edcd0p+5", "0x1.34d5e79b15cc2p-26"),
    (96, "0x1.5f52074954d01p+6", "0x1.f3044a8c57f03p+2", "0x1.f6d0aeb2c77bcp-41"),
    (96, "0x1.eb11ebb34b841p+3", "0x1.98c71be74cefbp+4", "0x1.e3f8e1ae89368p-17"),
    (96, "0x1.c64434f6773d8p+5", "0x1.572f771eca1a7p+4", "0x1.7ce9d9d6f5c2ep-40"),
    (96, "0x1.3a37e6b838d97p+5", "0x1.a82889d4be285p+4", "0x1.3101155136decp-22"),
    (96, "0x1.5ed321c27a66ap+6", "0x1.75ca575c8b377p+2", "0x1.cf3e6e920ceedp-41"),
    (96, "0x1.dd8b6f9d2474ep+1", "0x1.fc8b7afb8b8b8p+5", "0x1.84cf652f80ce2p-6"),
    (96, "0x1.0ea0e170a2ac6p+5", "0x1.cae2e67018d91p+5", "0x1.56898ff601ee1p-39"),
    (96, "0x1.4df023f4b59a6p+4", "0x1.05cca42145179p+6", "0x1.8fa5eb6fb4b72p-25"),
    (96, "0x1.34cf5862754c1p+6", "0x1.26cbce3e94005p+4", "0x1.1e0e8d164e7ecp-40"),
    (96, "0x1.1eddb6c81fcd1p+2", "0x1.234c5207755f7p+5", "0x1.8ac92cd475a77p-7"),
    (96, "0x1.16944eefc7f1bp+5", "0x1.5b47a196145aap+5", "0x1.3698a1ff7488cp-39"),
    (96, "0x1.35d886f0dac04p+4", "0x1.735fe82a2a8c9p+5", "0x1.b0c2fedf36434p-21"),
    (96, "0x1.33a96e8bcaf01p+6", "0x1.0a1962b1e0a4fp+4", "0x1.082037ddb533cp-40"),
    (96, "0x1.044e0abe442c2p+3", "0x1.1dd5ebab67854p+4", "0x1.6828adede1c23p-11"),
    (96, "0x1.44033d5b315c4p+5", "0x1.6040dd993a00cp+4", "0x1.9c36458b89609p-40"),
    (96, "0x1.697a9caef41afp+4", "0x1.79dc6e7b7a25ap+4", "0x1.1b401afbac6abp-18"),
    (96, "0x1.34b953f43c651p+6", "0x1.59f34d092d635p+3", "0x1.144ce3d9920fap-40"),
    (96, "0x1.d4e1edabe639ep-1", "0x1.0988551f571d3p+6", "0x1.9994c453b32e1p-2"),
    (96, "0x1.1b5decb1ec49dp+4", "0x1.25ea68c3e2b15p+6", "0x1.ee5e339ea31e0p-29"),
    (96, "0x1.23864022d1662p+3", "0x1.34d7e51a18540p+6", "0x1.52aabd6d5e6acp-14"),
    (96, "0x1.f369116f20a16p+5", "0x1.099b867513f74p+5", "0x1.61c4a8cabec49p-40"),
    (96, "0x1.11c1ece7038fdp+0", "0x1.3e99f979413d4p+5", "0x1.60ae79d78f88dp-2"),
    (96, "0x1.231bbd27d1991p+4", "0x1.e04e11f1f37eep+5", "0x1.08df5a826a8eap-29"),
    (96, "0x1.02e78e005141ep+3", "0x1.cd924822839c3p+5", "0x1.3dfa637f8fba4p-12"),
    (96, "0x1.f01552bc190ebp+5", "0x1.f8947768da4a8p+4", "0x1.47a0026c4d4f2p-40"),
    (96, "0x1.0388760afb578p+1", "0x1.7f8be2492a30ap+4", "0x1.15b3453941fdcp-3"),
    (96, "0x1.63cdb2b7f5c30p+4", "0x1.423cd2cbd37bdp+5", "0x1.2ff001b908196p-37"),
    (96, "0x1.23ef03ad0666cp+3", "0x1.28afc4a9f586ep+5", "0x1.54804f3d45dd1p-13"),
    (96, "0x1.f0873d6dcdb0fp+5", "0x1.9ed07b79ecea0p+4", "0x1.579d0630f58d4p-40"),
    (96, "0x1.289bbf2a58ba0p+2", "0x1.9af98b1b8e381p+3", "0x1.ae2c9fd56494ep-7"),
    (96, "0x1.dfb976b813de4p+4", "0x1.3708c18053591p+4", "0x1.8d54e603f5191p-37"),
    (96, "0x1.b06d10a33a670p+3", "0x1.2dd5ce466a057p+4", "0x1.b2b0d6c5a8ca0p-15"),
    (96, "0x1.ffc78b5da9402p+5", "0x1.d898bc01da521p+3", "0x1.4ba3b93889ef4p-40"),
]


def _tasks() -> list[RenewalTask]:
    cold = CrossingDistribution(CellSpec())
    hot = CrossingDistribution(CellSpec(), temperature_k=330.0)
    return [
        RenewalTask(distribution, cells, interval, t_ecc, threshold)
        for interval in (900.0, 27000.0)
        for t_ecc in (2, 3, 4)
        for threshold in range(1, t_ecc + 1)
        for distribution in (cold, hot)
        for cells in (256, 576)
    ]


def test_kernel_output_bits_are_pinned(monkeypatch):
    monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
    clear_propagation_cache()
    try:
        solutions = finite_horizon_batch(_tasks(), HORIZON)
    finally:
        clear_propagation_cache()
    got = [
        (
            s.visits,
            s.expected_ue.hex(),
            s.expected_writes.hex(),
            s.no_ue_probability.hex(),
        )
        for s in solutions
    ]
    assert len(got) == len(GOLDEN)
    for i, (row, pin) in enumerate(zip(got, GOLDEN)):
        assert row == pin, f"task {i}"
