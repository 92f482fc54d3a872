import pytest

from pipecut.simulate import InvalidPlan, render_gantt, simulate
from pipecut.stages import form_stage_dp

from test_stages import blockset_for, stage_chain


def uniform_plan(S, MB, *, ckpt=False, mem=2**40, per_stage=8):
    """One block per stage, one device per stage, same share everywhere."""
    bs = blockset_for(stage_chain([1.0] * S), mem=mem, dpn=S, ckpt=ckpt)
    plan = form_stage_dp(bs, S, S, MB * per_stage, 1, MB).plan
    assert plan is not None
    assert all(st.blocks[1] - st.blocks[0] == 1 for st in plan.stages)
    return bs, plan


def lane(schedule, dev):
    return sorted((e for e in schedule.events if e.device == dev),
                  key=lambda e: e.start_sec)


class TestClosedForm:
    @pytest.mark.parametrize("S", [1, 2, 3, 4])
    @pytest.mark.parametrize("MB", [1, 2, 4, 8])
    def test_fill_drain_identity(self, S, MB):
        # uniform stages, zero transfer, no recompute
        bs, plan = uniform_plan(S, MB)
        sched = simulate(plan, bs)
        t_f = plan.stages[0].t_fwd
        t_b = plan.stages[0].t_bwd
        expected = (MB + S - 1) * (t_f + t_b)
        assert sched.iteration_time_sec == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("S,MB", [(2, 2), (3, 4), (4, 8)])
    def test_bubble_matches_fill_drain(self, S, MB):
        bs, plan = uniform_plan(S, MB)
        sched = simulate(plan, bs)
        assert sched.bubble_fraction == pytest.approx((S - 1) / (MB + S - 1),
                                                      rel=1e-9)

    def test_throughput_is_batch_over_iteration(self):
        bs, plan = uniform_plan(2, 4)
        sched = simulate(plan, bs)
        assert sched.samples_per_sec == pytest.approx(
            plan.batch_size / sched.iteration_time_sec, rel=1e-12)


class TestHandUnrolled:
    def test_two_stage_two_microbatch_times(self):
        bs, plan = uniform_plan(2, 2)
        t_f = plan.stages[0].t_fwd
        t_b = plan.stages[0].t_bwd
        sched = simulate(plan, bs)
        ev = {(e.device, e.phase, e.microbatch): (e.start_sec, e.end_sec)
              for e in sched.events}
        assert ev[(0, "fwd", 0)] == (0.0, t_f)
        assert ev[(0, "fwd", 1)] == (t_f, 2 * t_f)
        assert ev[(1, "fwd", 0)] == (t_f, 2 * t_f)
        assert ev[(1, "fwd", 1)] == (2 * t_f, 3 * t_f)
        # drain in reverse microbatch order
        assert ev[(1, "bwd", 1)] == (3 * t_f, 3 * t_f + t_b)
        assert ev[(1, "bwd", 0)] == (3 * t_f + t_b, 3 * t_f + 2 * t_b)
        assert ev[(0, "bwd", 1)][0] == 3 * t_f + t_b
        assert sched.iteration_time_sec == 3 * (t_f + t_b)


class TestDependencies:
    def make(self, *, ckpt=False, sizes=None, params=None, S=3, MB=4,
             nodes=2, dpn=2, bw=(1e4, 5e3)):
        g = stage_chain([1.0, 2.0, 1.0, 1.0, 2.0, 1.0], sizes=sizes,
                        params=params)
        bs = blockset_for(g, nodes=nodes, dpn=dpn, bw=bw, ckpt=ckpt)
        plan = form_stage_dp(bs, S, 4, MB * 8, 1, MB).plan
        assert plan is not None
        return bs, plan, simulate(plan, bs)

    def test_no_device_overlap(self):
        _, _, sched = self.make(sizes=[64] * 6, params=[128] * 6)
        for dev in range(sched.n_devices):
            evs = lane(sched, dev)
            for a, b in zip(evs, evs[1:]):
                assert b.start_sec >= a.end_sec - 1e-12

    def test_forward_waits_for_upstream(self):
        _, _, sched = self.make(sizes=[64] * 6)
        fwd_end = {}
        for e in sched.events:
            if e.phase == "fwd":
                fwd_end[(e.stage, e.microbatch)] = e.end_sec
        for e in sched.events:
            if e.phase == "fwd" and e.stage > 0:
                assert e.start_sec >= fwd_end[(e.stage - 1, e.microbatch)] - 1e-12

    def test_backward_waits_for_downstream(self):
        _, _, sched = self.make(sizes=[64] * 6)
        bwd_end = {}
        for e in sched.events:
            if e.phase == "bwd":
                bwd_end[(e.stage, e.microbatch)] = e.end_sec
        last = max(e.stage for e in sched.events)
        for e in sched.events:
            if e.phase == "bwd" and e.stage < last:
                assert e.start_sec >= bwd_end[(e.stage + 1, e.microbatch)] - 1e-12

    def test_strict_fill_before_drain_per_lane(self):
        _, _, sched = self.make(sizes=[64] * 6)
        for dev in range(sched.n_devices):
            evs = lane(sched, dev)
            last_fwd = max(e.end_sec for e in evs if e.phase == "fwd")
            first_bwd = min(e.start_sec for e in evs if e.phase == "bwd")
            assert first_bwd >= last_fwd - 1e-12

    def test_recompute_precedes_each_backward(self):
        _, plan, sched = self.make(ckpt=True)
        S = len(plan.stages)
        recs = [e for e in sched.events if e.phase == "recompute"]
        assert len(recs) == plan.microbatches * sum(st.devices
                                                    for st in plan.stages)
        by_key = {(e.device, e.microbatch): e for e in recs}
        for e in sched.events:
            if e.phase == "bwd":
                rec = by_key[(e.device, e.microbatch)]
                assert rec.end_sec <= e.start_sec + 1e-12
                stage = plan.stages[e.stage]
                assert rec.end_sec - rec.start_sec == pytest.approx(
                    stage.t_fwd, rel=1e-12)

    def test_no_recompute_without_checkpointing(self):
        _, _, sched = self.make(ckpt=False)
        assert not any(e.phase == "recompute" for e in sched.events)

    def test_recompute_slows_iteration(self):
        _, _, plain = self.make(ckpt=False)
        _, _, ck = self.make(ckpt=True)
        assert ck.iteration_time_sec > plain.iteration_time_sec

    def test_transfers_occupy_the_sender(self):
        _, plan, sched = self.make(sizes=[512] * 6)
        comm = [e for e in sched.events if e.phase == "comm"]
        assert comm, "nonzero boundaries must produce transfer events"
        last = len(plan.stages) - 1
        for e in comm:
            assert 0 <= e.stage <= last

    def test_gradient_sync_after_everything(self):
        _, plan, sched = self.make(params=[4096] * 6, S=2, nodes=2, dpn=1)
        ar = [e for e in sched.events if e.phase == "allreduce"]
        if not ar:
            pytest.skip("no replicated stage in this plan")
        for e in ar:
            evs = lane(sched, e.device)
            for other in evs:
                if other.phase != "allreduce":
                    assert other.end_sec <= e.start_sec + 1e-12

    def test_replicated_stage_syncs_gradients(self):
        g = stage_chain([1.0, 1.0], params=[4096, 4096])
        bs = blockset_for(g, nodes=2, dpn=1, bw=(1e4, 5e3))
        plan = form_stage_dp(bs, 1, 1, 8, 2, 1).plan
        assert plan is not None
        sched = simulate(plan, bs)
        ar = [e for e in sched.events if e.phase == "allreduce"]
        assert len(ar) == 1
        # ring pass bytes: 2 * P * (r - 1) / r at the slower link
        expect = (2 * 8192 * 1 // 2) / 5e3
        assert ar[0].end_sec - ar[0].start_sec == pytest.approx(expect, rel=1e-9)

    def test_unreplicated_plan_has_no_sync(self):
        bs, plan = uniform_plan(2, 2)
        sched = simulate(plan, bs)
        assert not any(e.phase == "allreduce" for e in sched.events)


class TestReplication:
    def test_stage_devices_share_the_work(self):
        bs = blockset_for(stage_chain([1.0, 1.0]), dpn=4)
        plan = form_stage_dp(bs, 1, 2, 8, 1, 2).plan
        sched = simulate(plan, bs)
        assert sched.n_devices == 2
        assert lane(sched, 0) and lane(sched, 1)
        a = [(e.phase, e.start_sec, e.end_sec) for e in lane(sched, 0)]
        b = [(e.phase, e.start_sec, e.end_sec) for e in lane(sched, 1)]
        assert a == b


class TestValidation:
    def test_rejects_tampered_plan(self):
        bs, plan = uniform_plan(2, 2)
        bad = plan._replace(objective=plan.objective * 2)
        with pytest.raises(InvalidPlan) as exc:
            simulate(bad, bs)
        assert exc.value.violations


class TestGantt:
    def test_text_rows_and_legend(self):
        bs, plan = uniform_plan(2, 2)
        out = render_gantt(simulate(plan, bs), mode="text")
        lines = out.strip().split("\n")
        assert len(lines) == 4  # header, two device rows, legend
        assert lines[1].startswith("dev   0 |")
        assert "F" in lines[1] and "B" in lines[1]
        assert "F=fwd" in lines[-1]

    def test_svg_rectangles(self):
        bs, plan = uniform_plan(2, 2)
        svg = render_gantt(simulate(plan, bs), mode="svg")
        assert svg.count('phase-fwd') == 4
        assert svg.count('phase-bwd') == 4
        assert svg.count('phase-comm') == 0
        assert ">dev 0</text>" in svg and ">dev 1</text>" in svg

    def test_unknown_mode(self):
        bs, plan = uniform_plan(2, 2)
        with pytest.raises(ValueError):
            render_gantt(simulate(plan, bs), mode="png")
