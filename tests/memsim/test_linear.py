"""The line-level oracle (``line_oracle.py``) and the cross-granularity
validation of the object-granularity LRU behind Figure 7."""

import pytest

from repro.errors import ConfigurationError
from repro.machines import intel_i9_10900k
from repro.memsim import profile_cake, profile_goto
from tests.memsim.line_oracle import (
    AddressSpace,
    LineHierarchy,
    line_profile_cake,
    line_profile_goto,
)


class TestAddressSpace:
    def test_disjoint_allocations(self):
        mem = AddressSpace()
        a = mem.alloc("a", 100)
        b = mem.alloc("b", 200)
        assert b >= a + 100
        assert mem.base("a") == a

    def test_alignment(self):
        mem = AddressSpace(alignment=64)
        mem.alloc("a", 1)
        assert mem.alloc("b", 1) % 64 == 0

    def test_double_alloc_rejected(self):
        mem = AddressSpace()
        mem.alloc("a", 10)
        with pytest.raises(ConfigurationError, match="already"):
            mem.alloc("a", 10)

    def test_unknown_buffer_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            AddressSpace().base("ghost")


class TestLineHierarchy:
    def test_walk_and_install(self, intel):
        h = LineHierarchy(intel, cores=2)
        assert h.access_line(0, 0) == "DRAM"
        assert h.access_line(0, 0) == "L1"
        assert h.access_line(1, 0) == "LLC"  # filled inclusively on core 0

    def test_range_touches_every_line(self, intel):
        h = LineHierarchy(intel, cores=1)
        h.access_range(0, 0, 256)  # 4 lines
        assert h.serves["DRAM"] == 4
        assert h.dram_bytes == 256

    def test_dram_fraction(self, intel):
        h = LineHierarchy(intel, cores=1)
        h.access_range(0, 0, 128)
        h.access_range(0, 0, 128)
        assert h.dram_fraction == pytest.approx(0.5)

    def test_working_set_larger_than_l1_falls_to_l2(self, intel):
        # Two passes over a buffer bigger than L1 but smaller than L2:
        # the second pass hits in L2, not L1.
        nbytes = intel.l1_bytes * 4
        assert nbytes < intel.l2_bytes
        h = LineHierarchy(intel, cores=1)
        h.access_range(0, 0, nbytes)
        h.access_range(0, 0, nbytes)
        assert h.serves["L2"] == nbytes // 64
        assert h.serves["L1"] == 0


class TestCrossGranularityValidation:
    """The methodological check: object-granularity profiles (used for
    Figure 7 at scale) must agree with the line-level ground truth at
    small scale — same winners, same traffic direction, DRAM volumes in
    the same ballpark."""

    @pytest.fixture(scope="class")
    def profiles(self):
        """A 1/16-scale machine with a matching problem: C (1.3 MB)
        exceeds the shrunken 1.25 MiB LLC, reproducing the capacity
        regime of Figure 7 at line-tractable size."""
        import dataclasses

        machine = dataclasses.replace(
            intel_i9_10900k(),
            cores=4,
            l1_bytes=4 * 1024,
            l2_bytes=16 * 1024,
            llc_bytes=768 * 1024,
        )
        n = 576
        return {
            "cake_obj": profile_cake(machine, n, n, n),
            "goto_obj": profile_goto(machine, n, n, n),
            "cake_line": line_profile_cake(machine, n, n, n),
            "goto_line": line_profile_goto(machine, n, n, n),
        }

    def test_goto_hits_dram_more_in_both_models(self, profiles):
        assert (
            profiles["goto_obj"].dram_bytes > profiles["cake_obj"].dram_bytes
        )
        assert (
            profiles["goto_line"].dram_bytes > profiles["cake_line"].dram_bytes
        )

    def test_dram_traffic_within_2x_across_granularities(self, profiles):
        for engine in ("cake", "goto"):
            obj = profiles[f"{engine}_obj"].dram_bytes
            line = profiles[f"{engine}_line"].dram_bytes
            assert 0.4 < line / obj < 2.5, (engine, obj, line)

    def test_cake_line_requests_mostly_local(self, profiles):
        """At line level too, CAKE's requests are served locally."""
        assert profiles["cake_line"].dram_fraction < 0.2
