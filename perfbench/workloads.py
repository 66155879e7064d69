"""The three benchmark workloads.

Each workload draws its inputs from a seed when it is constructed (that is
the timed set-up), then runs one "study" per call of ``study`` and checks
the study's outputs against oracles in ``check``. Every call into dremkit
goes through a module attribute (``cli.main``, ``operators.extend``, ...) so
that the tracer and the capture shim, which rebind those attributes, see it.

Oracle tolerances reuse the acceptance suite's (tests/test_acceptance.py):
c03 1e-6, c06 1e-4 (CT) and 1e-12 (DT), c07 1e-9 (CT) and exact (DT),
c09 1e-6 / 1e-3, c10 1e-2 / 1e-3, c12 bit for bit. Where a workload's
inputs break an assumption behind an acceptance tolerance, the oracle
says which and what it checks instead. The known-red clauses of
c05, c08 and c11 are never asserted. Identities that hold up to rounding
are checked at 1e-12 relative to a Hadamard scale, which bounds every
cofactor by ``|Phi|_F ** (m - 1)``.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

from dremkit import cli, estimators, excitation, mixing, operators, scenarios, signals

ROUNDING_TOL = 1e-12
TINY = np.finfo(float).tiny


class Capture:
    """Rebinds ``module.name`` to a wrapper that keeps the last call's
    arguments and result, so oracles can read values the study computed but
    did not return. Each captured function runs once per study."""

    def __init__(self, targets):
        self.targets = targets
        self.saved = []
        self.calls = {}

    def __enter__(self):
        self.calls = {}
        for module, name in self.targets:
            fn = getattr(module, name)
            self.saved.append((module, name, fn))
            setattr(module, name, self._wrap(name, fn))
        return self

    def _wrap(self, name, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name] = (args, kwargs, result)
            return result

        return captured

    def __exit__(self, *exc):
        while self.saved:
            module, name, fn = self.saved.pop()
            setattr(module, name, fn)
        return False


class Checks:
    """Collects named oracle results; a study passes when every one holds."""

    def __init__(self):
        self.failures = []

    def le(self, name, value, bound):
        if not (value <= bound):  # also catches NaN
            self.failures.append(f"{name}: {value!r} > {bound!r}")

    def true(self, name, cond, detail=""):
        if not cond:
            self.failures.append(f"{name}: failed {detail}".rstrip())


def _sup_rel(resid, scale):
    return float(np.max(resid / np.maximum(scale, TINY)))


def check_linear_identities(chk, tag, Y, Phi, mixed, theta):
    """Y = Phi theta and calY = Delta theta, sample by sample, at rounding
    level relative to the Hadamard scale of the extended matrix."""
    m = Phi.shape[1]
    norm_phi = np.linalg.norm(Phi.reshape(len(Phi), -1), axis=1)
    norm_th = float(np.linalg.norm(theta))
    resid_y = np.abs(Y - Phi @ theta).max(axis=1)
    chk.le(f"{tag} Y=Phi.theta", _sup_rel(resid_y, norm_phi * norm_th), ROUNDING_TOL)
    calY, delta = mixed.calY.values, mixed.Delta.values
    resid_c = np.abs(calY - delta[:, None] * theta).max(axis=1)
    scale_c = norm_phi ** (m - 1) * (np.linalg.norm(Y, axis=1) + norm_phi * norm_th)
    chk.le(f"{tag} calY=Delta.theta", _sup_rel(resid_c, scale_c), ROUNDING_TOL)


def check_adjugate_identity(chk, tag, Phi, delta, rows):
    """adj(Phi) Phi = det(Phi) I on selected samples, with the library's
    per-matrix routines, and det agreeing with the mixed Delta."""
    m = Phi.shape[1]
    eye = np.eye(m)
    worst_adj = worst_det = 0.0
    for k in rows:
        M = Phi[k]
        scale = max(np.linalg.norm(M) ** m, TINY)
        det = mixing.determinant(M)
        worst_adj = max(worst_adj, float(np.abs(mixing.adjugate(M) @ M - det * eye).max()) / scale)
        worst_det = max(worst_det, abs(det - delta[k]) / scale)
    chk.le(f"{tag} adj(Phi)Phi=det(Phi)I", worst_adj, ROUNDING_TOL)
    chk.le(f"{tag} det=Delta", worst_det, ROUNDING_TOL)


def piecewise_linear_envelope(delta, gamma):
    """exp(-gamma * int_0^t Delta^2) for the piecewise-linear Delta between
    samples, integrated exactly. drem_ct's RK4 takes its half-step Delta by
    linear interpolation, so this is the envelope of the ODE it integrates.
    closed_form_error_ct integrates the sampled Delta^2 by Simpson's rule
    instead; on fast-varying Delta the two energies differ by more than
    1e-4 / gamma, which is quadrature, not estimator, error."""
    d, h = delta.values, delta.grid.step
    steps = h / 3.0 * (d[:-1] ** 2 + d[:-1] * d[1:] + d[1:] ** 2)
    return np.exp(-gamma * np.concatenate([[0.0], np.cumsum(steps)]))


def check_csv_round_trip(chk, out_dir, expected):
    """c12: every emitted column parses back to the in-memory doubles."""
    for fname, columns in expected.items():
        path = out_dir / fname
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        for col, values in columns.items():
            got = data[:, header.index(col)]
            chk.true(f"c12 {fname}:{col} round trip", np.array_equal(got, values))


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=1))
    return path


class _CliWorkload:
    """Shared set-up for the workloads that drive ``dremkit simulate``."""

    def __init__(self, rng, work_dir):
        self.rng = rng
        self.dir = Path(work_dir) / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out = self.dir / "out"
        cfg = self.draw_config()
        warm = json.loads(json.dumps(cfg))
        warm["grid"]["horizon"] = self.warm_horizon
        self.config_path = _write_config(self.dir / "study.json", cfg)
        self.warm_path = _write_config(self.dir / "warm.json", warm)
        self.cfg = cli.load_config(self.config_path)
        self.horizon, self.step = cli.parse_grid(self.cfg)
        self.samples = signals.TimeGrid.from_horizon(self.horizon, self.step).count

    def _simulate(self, path, out):
        return cli.main(["simulate", "--config", str(path), "--out", str(out)])

    def warm_up(self):
        warm_out = self.dir / "warm_out"
        self._simulate(self.warm_path, warm_out)
        shutil.rmtree(warm_out)
        shutil.rmtree(self.out, ignore_errors=True)

    def study(self):
        with Capture(self.captures) as cap:
            code = self._simulate(self.config_path, self.out)
        return code, cap.calls

    def check(self, outcome):
        # the outputs go once checked, so no study can pass on files an
        # earlier one wrote, and their pages are dropped before write-back
        try:
            return self.verify(*outcome)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)


class Identify(_CliWorkload):
    """Seeded ``custom`` identification config through ``dremkit simulate``:
    plant simulation, regressor filters, the paper's two-channel bank
    (m = 2), plain and boosted mixing, three CT estimators, three CSVs."""

    name = "identify"
    warm_horizon = 1.0
    captures = ((cli, "run_identification_scenario"), (scenarios, "build_regressor"))

    def __init__(self, rng, work_dir):
        super().__init__(rng, work_dir)
        # set-up includes building the bank, with its eigenvalue checks
        self.bank = cli.parse_bank(self.cfg["bank"])

    def draw_config(self):
        rng = self.rng
        a, b = -rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        if rng.random() < 0.5:
            drive = {
                "kind": "sinusoid",
                "amplitude": rng.uniform(5.0, 20.0),
                "frequency": rng.uniform(1.0, 4.0),
                "phase": rng.uniform(0.0, 2.0 * math.pi),
            }
        else:
            drive = {"kind": "constant", "level": rng.uniform(5.0, 20.0)}
        self.pole, self.gamma = 5.0, 1.0
        self.theta_true = np.array([a + self.pole, b])
        return {
            "mode": "custom",
            "grid": {"t0": 0.0, "step": 1e-3, "horizon": 20.0},
            "plant": {"a": a, "b": b, "y0": 0.0, "input": drive},
            "regressor": {"pole": self.pole},
            "bank": {
                "channels": [
                    {"n": 1, "A": -1.0, "b": 1.0, "c": 1.0},
                    {"n": 1, "A": -2.0, "b": 2.0, "c": 1.0},
                ]
            },
            "estimator": {"gamma": self.gamma, "theta_hat0": [0.0, 0.0]},
        }

    def verify(self, code, calls):
        chk = Checks()
        chk.true("exit code 0", code == 0, f"(got {code})")
        if code != 0:
            return chk.failures
        result = calls["run_identification_scenario"][2]
        (_, _, _, y), _, (phi, theta) = calls["build_regressor"]
        chk.le("theta_true", float(np.abs(theta - self.theta_true).max()), 1e-12)
        resid = float(np.abs(y.values - phi.values @ theta).max())
        chk.le("sup|y - phi.theta| / sup|y|", resid / max(np.abs(y.values).max(), TINY), 1e-5)
        err0 = -theta
        for name in ("drem_d0", "drem_dN"):
            run = result.runs[name]
            env = estimators.closed_form_error_ct(run.diagnostics, self.gamma, 1.0).values
            for i in range(2):
                dev = np.abs(run.theta_tilde.values[:, i] - env * err0[i])
                # c06 CT at 1e-4 relative to the envelope, plus the floor set
                # by the discretisation residual of Y = Phi theta
                excess = np.max(dev - 1e-4 * np.abs(env * err0[i])) / abs(err0[i])
                chk.le(f"c06 {name}[{i}] envelope", float(excess), 1e-5)
        times = result.grid.times()
        expected = {}
        for name, run in result.runs.items():
            cols = {"t": times, ("phi_norm_sq" if name == "gradient" else "delta"): run.diagnostics.values}
            for i in range(2):
                cols[f"theta_hat_{i+1}"] = run.theta_hat.values[:, i]
                cols[f"theta_tilde_{i+1}"] = run.theta_tilde.values[:, i]
            expected[f"{name}.csv"] = cols
        check_csv_round_trip(chk, self.out, expected)
        return chk.failures


class Track(_CliWorkload):
    """Seeded ``ftc`` tracking config through ``dremkit simulate``: one
    scalar DREM estimator, both finite-time recoveries, three CSVs."""

    warm_horizon = 2.0
    captures = ((cli, "run_ftc_scenario"),)

    def __init__(self, rng, work_dir, kind):
        self.kind = kind
        self.name = f"track-{kind}"
        super().__init__(rng, work_dir)

    def draw_config(self):
        rng = self.rng
        self.ftc = {
            "gamma": rng.uniform(2.0, 4.0),
            "theta_hat0": rng.uniform(-5.0, 5.0),
            "clip_threshold": rng.uniform(0.95, 0.99),
            "delay_window": float(rng.choice([0.1, 0.15, 0.2, 0.25, 0.3])),
        }
        return {
            "mode": "ftc",
            "delta_kind": self.kind,
            "grid": {"t0": 0.0, "step": 1e-3, "horizon": 40.0},
            "ftc": self.ftc,
        }

    def _exact_energy(self, t):
        if self.kind == "pe":
            return t / 2.0 - np.sin(4.0 * np.pi * t) / (8.0 * np.pi)
        return 1.0 - 1.0 / (t + 1.0)

    def verify(self, code, calls):
        chk = Checks()
        chk.true("exit code 0", code == 0, f"(got {code})")
        if code != 0:
            return chk.failures
        result = calls["run_ftc_scenario"][2]
        t = result.grid.times()
        gamma = self.ftc["gamma"]
        hat = result.runs["gradient"].theta_hat.values[:, 0]
        plain, alert = result.ftc_runs["ftc"], result.ftc_runs["ftc_d"]
        ftc = plain.theta_ftc.values
        ftc_d = alert.theta_ftc.values

        w_exact = np.exp(-gamma * self._exact_energy(t))
        chk.le("w vs closed-form energy", float(np.abs(plain.w.values - w_exact).max()), 1e-6)

        # the exact FTC identities wherever a recovery is active
        act = plain.active
        w = plain.w.values[act]
        rec = (hat[act] - w * hat[0]) / (1.0 - w)
        chk.le("FTC identity", _sup_rel(np.abs(ftc[act] - rec), np.abs(rec)), ROUNDING_TOL)
        lag = int(round(self.ftc["delay_window"] / self.step))
        snap = np.concatenate([np.full(lag, hat[0]), hat[:-lag]])
        act_d = alert.active
        wd = alert.w_delayed.values[act_d]
        rec_d = (hat[act_d] - wd * snap[act_d]) / (1.0 - wd)
        chk.le("alert FTC identity", _sup_rel(np.abs(ftc_d[act_d] - rec_d), np.abs(rec_d)), ROUNDING_TOL)

        # c09: activation exists and the recovery is exact on the first
        # (constant, theta = 10) piece of the schedule
        chk.true("c09 activation", plain.t_c is not None and plain.t_c < 10.0)
        if plain.t_c is not None:
            first = (t >= plain.t_c) & (t < 10.0)
            chk.le("c09 recovery on [t_c, 10)", float(np.abs(ftc[first] - 10.0).max()), 1e-3)
        if self.kind == "pe":
            chk.true("c10 activation", alert.t_c is not None)
            if alert.t_c is not None:
                both = (t >= max(plain.t_c, alert.t_c)) & (t <= 3.0)
                chk.le("c10(a) recoveries agree", float(np.abs(ftc[both] - ftc_d[both]).max()), 1e-2)
            mid = (t >= 12.0) & (t <= 20.0)
            chk.le("c10(b) collapse", float(np.abs(ftc[mid] - hat[mid]).max()), 1e-3)
            hit = (t > 10.0) & (t <= 11.0) & (np.abs(ftc_d - 15.0) <= 1e-3)
            chk.true("c10(c) re-acquires 15 within 1 s", bool(hit.any()))

        delta = result.runs["gradient"].diagnostics.values
        expected = {}
        for name, run in result.runs.items():
            cols = {
                "t": t,
                "theta_hat_1": run.theta_hat.values[:, 0],
                "theta_tilde_1": run.theta_tilde.values[:, 0],
                "delta": delta,
            }
            ftc_run = result.ftc_runs.get(name)
            if ftc_run is not None:
                cols["w"] = ftc_run.w.values
                cols["w_clipped"] = ftc_run.w_clipped.values
                if ftc_run.w_delayed is not None:
                    cols["w_delayed"] = ftc_run.w_delayed.values
            expected[f"{name}.csv"] = cols
        check_csv_round_trip(chk, self.out, expected)
        return chk.failures


class WideMix:
    """Library calls at m = 3 and m = 5: a bank of first-order channels with
    a time-varying ``b(t)`` and a delay tap, plain and boosted extension,
    per-sample adjugate mixing, DREM, and at m = 3 the single-filter
    extension against its equivalent channel bank."""

    dims = (3, 5)
    count = 5_001
    warm_count = 501
    kre_pole = 1.0
    envelope_energy = 5.0  # gain chosen so gamma * int Delta^2 ends here

    def __init__(self, rng):
        self.cases = {}
        for m in self.dims:
            grid = signals.TimeGrid(0.0, 1e-3, self.count)
            t = grid.times()
            freqs = np.geomspace(0.4, 8.0, m) * rng.uniform(0.8, 1.25, m)
            phi_vals = np.stack(
                [
                    np.sin(f * t + rng.uniform(0, 2 * math.pi))
                    + 0.5 * np.cos(rng.uniform(0.2, 2.0) * t + rng.uniform(0, 2 * math.pi))
                    for f in freqs
                ],
                axis=1,
            )
            theta = rng.normal(size=m)
            poles = np.geomspace(0.5, 20.0, m) * rng.uniform(0.8, 1.25, m)
            channels = []
            for i, p in enumerate(poles):
                spec = {"n": 1, "A": -p, "b": p, "c": 1.0, "kind": "ct"}
                if i == 0:
                    spec["b"] = scenarios.Sinusoid(p, rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
                if i == m - 1:
                    spec["delay"] = 1e-3 * int(rng.integers(20, 200))
                    spec["delay_gain"] = rng.uniform(0.2, 1.0)
                channels.append(operators.LtvChannelSpec(**spec))
            bank = operators.OperatorBank(tuple(channels))
            full = (
                signals.Trajectory(grid, phi_vals @ theta, "ct"),
                signals.Trajectory(grid, phi_vals, "ct"),
            )
            wgrid = signals.TimeGrid(0.0, 1e-3, self.warm_count)
            warm = (
                signals.Trajectory(wgrid, full[0].values[: self.warm_count], "ct"),
                signals.Trajectory(wgrid, phi_vals[: self.warm_count], "ct"),
            )
            theta0 = rng.normal(size=m)
            self.cases[m] = dict(bank=bank, theta=theta, theta0=theta0, full=full, warm=warm,
                                 rows=rng.choice(self.count, 20, replace=False))
        self.kre = operators.KreSpec(pole=self.kre_pole)
        self.samples = self.count * len(self.dims)

    def _pipeline(self, m, y, phi):
        case = self.cases[m]
        bank = case["bank"]
        Y0, Phi0 = operators.extend(bank, y, phi)
        mixed0 = mixing.mix(Y0, Phi0)
        YN, PhiN = mixing.extend_with_feedforward(bank, y, phi)
        mixedN = mixing.mix(YN, PhiN)
        energy = y.grid.step * float(np.sum(mixedN.Delta.values ** 2))
        gamma = self.envelope_energy / max(energy, TINY)
        cfg = estimators.GradientConfig(gamma, case["theta0"])
        run = estimators.drem_ct(mixedN, cfg, theta_true=case["theta"])
        out = dict(Y0=Y0, Phi0=Phi0, mixed0=mixed0, YN=YN, PhiN=PhiN, mixedN=mixedN, gamma=gamma, run=run)
        if m == self.dims[0]:
            out["kre"] = operators.kre_ct(self.kre, y, phi)
            out["kre_bank"] = operators.extend(operators.kre_as_drem_bank(phi, self.kre_pole), y, phi)
        return out

    def warm_up(self):
        for m in self.dims:
            self._pipeline(m, *self.cases[m]["warm"])

    def study(self):
        return {m: self._pipeline(m, *self.cases[m]["full"]) for m in self.dims}

    def check(self, outcome):
        chk = Checks()
        for m, out in outcome.items():
            case = self.cases[m]
            theta = case["theta"]
            for tag, Y, Phi, mixed in (("plain", out["Y0"], out["Phi0"], out["mixed0"]),
                                       ("boosted", out["YN"], out["PhiN"], out["mixedN"])):
                check_linear_identities(chk, f"m={m} {tag}", Y.values, Phi.values, mixed, theta)
                check_adjugate_identity(chk, f"m={m} {tag}", Phi.values, mixed.Delta.values, case["rows"])
            err = out["run"].theta_tilde.values
            chk.le(f"m={m} c07 CT monotone", float(np.diff(np.abs(err), axis=0).max()), 1e-9)
            env = piecewise_linear_envelope(out["mixedN"].Delta, out["gamma"])
            err0 = case["theta0"] - theta
            rel = np.abs(err - env[:, None] * err0) / np.abs(env[:, None] * err0)
            chk.le(f"m={m} CT envelope of the interpolated Delta", float(rel.max()), 1e-6)
            if "kre" in out:
                (Z, Om), (Yb, Pb) = out["kre"], out["kre_bank"]
                chk.le(f"m={m} c03 sup|Omega-Phi|", float(np.abs(Om.values - Pb.values).max()), 1e-6)
                chk.le(f"m={m} c03 sup|Z-Y|", float(np.abs(Z.values - Yb.values).max()), 1e-6)
        return chk.failures


class ExciteDt:
    """The decaying-regressor counterexample suite plus a seeded 1e5-sample
    DT regression through the normalized gradient, the sliding-window
    extension, mixing, two DREM runs and a windowed excitation scan."""

    count = 100_000
    warm_count = 2_000

    def __init__(self, rng):
        self.theta = rng.normal(size=2)
        self.window = int(rng.integers(2, 6))
        self.pe_window = int(rng.integers(5, 21))
        self.gamma = rng.uniform(0.5, 5.0)
        self.theta0 = rng.normal(size=2)
        k = np.arange(self.count)
        w1, w2 = rng.uniform(0.01, 0.3, 2)
        noise = rng.uniform(-0.5, 0.5, (self.count, 2))
        phi_vals = np.stack(
            [np.sin(w1 * k + rng.uniform(0, 6.3)), np.cos(w2 * k + rng.uniform(0, 6.3))], axis=1
        ) + noise
        self.inputs = self._trajectories(phi_vals)
        self.warm = self._trajectories(phi_vals[: self.warm_count])
        self.cfg = estimators.GradientConfig(self.gamma, self.theta0)
        self.samples = 2 * self.count

    def _trajectories(self, phi_vals):
        grid = signals.TimeGrid(0.0, 1.0, len(phi_vals))
        return (
            signals.Trajectory(grid, phi_vals @ self.theta, "dt"),
            signals.Trajectory(grid, phi_vals, "dt"),
        )

    def _pipeline(self, y, phi, horizon, max_window):
        report = excitation.counterexample_suite(horizon=horizon, max_window=max_window)
        grad = estimators.dt_gradient(y, phi, self.cfg, theta_true=self.theta)
        Y, Phi = operators.sliding_window_phi(y, phi, operators.SlidingWindowSpec(self.window))
        mixed = mixing.mix(Y, Phi)
        drem = estimators.drem_dt(mixed, self.cfg, theta_true=self.theta)
        # homogeneous error dynamics (calY = 0), for which c07 asks exact
        # monotonicity
        zero = signals.Trajectory(y.grid, np.zeros((y.grid.count, 2)), "dt")
        homog = estimators.drem_dt(mixing.MixedRegression(calY=zero, Delta=mixed.Delta), self.cfg)
        pe = excitation.pe_check_dt(phi, self.pe_window)
        return dict(report=report, grad=grad, Y=Y, Phi=Phi, mixed=mixed, drem=drem, homog=homog, pe=pe)

    def warm_up(self):
        self._pipeline(*self.warm, horizon=self.warm_count, max_window=10)

    def study(self):
        return self._pipeline(*self.inputs, horizon=self.count, max_window=100)

    def check(self, out):
        chk = Checks()
        rep = out["report"]
        # c05 clause (b) and the forward direction; clause (a) is known red
        chk.true("c05(b) energy diverges", rep.energy_diverges)
        chk.true("forward energy linear", rep.forward_energy_linear)
        harmonic = float(np.sum(1.0 / np.arange(1, self.count)))
        chk.le("energy = harmonic number", abs(rep.energy_final - harmonic) / harmonic, 1e-12)

        err0 = self.theta0 - self.theta
        norms = np.linalg.norm(out["grad"].theta_tilde.values, axis=1)
        chk.le("DT gradient |err| non-increasing", float(np.diff(norms).max()), ROUNDING_TOL * np.linalg.norm(err0))

        check_linear_identities(chk, "window", out["Y"].values, out["Phi"].values, out["mixed"], self.theta)
        delta = out["mixed"].Delta
        env = estimators.closed_form_error_dt(delta, self.gamma, 1.0).values
        dev = np.abs(out["drem"].theta_tilde.values - env[:, None] * err0).max(axis=0)
        # The mixed data meet calY = Delta theta only up to a rounding
        # residual r(k), which the recursion passes on with gain
        # Delta / (gamma + Delta^2) <= 1 and then damps. Their sum bounds the
        # deviation from the envelope; the exact envelope is asserted on the
        # homogeneous run below, where r = 0.
        d = delta.values
        resid = np.abs(out["mixed"].calY.values - d[:, None] * self.theta)
        gain = np.abs(d) / (self.gamma + d * d)
        carried = np.sum(gain[1:, None] * resid[1:], axis=0)
        chk.le("c06 DT envelope", float(np.max((dev - carried) / np.abs(err0))), 1e-12)
        hom = out["homog"].theta_hat.values
        chk.le("c07 DT exact monotone", float(np.diff(np.abs(hom), axis=0).max()), 0.0)
        dev_h = np.abs(hom - env[:, None] * self.theta0).max(axis=0)
        chk.le("c06 DT envelope (homogeneous)", float(np.max(dev_h / np.abs(self.theta0))), 1e-12)

        # windowed Gramians by running sums, an independent summation order
        phi = self.inputs[1].values
        K = self.pe_window
        outer = np.einsum("ki,kj->kij", phi, phi)
        cum = np.concatenate([np.zeros((1, 2, 2)), np.cumsum(outer[1:], axis=0)])
        alpha = float(np.linalg.eigvalsh(cum[K:] - cum[:-K])[:, 0].min())
        scale = K * float(np.max(np.sum(phi * phi, axis=1)))
        chk.le("pe_check_dt alpha_hat", abs(out["pe"].alpha_hat - alpha) / scale, 1e-9)
        return chk.failures


class Workload:
    """One benchmark workload: a study runs every part in turn, and every
    part's oracles count toward the study's result."""

    def __init__(self, name, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.name = name
        self.parts = WORKLOADS[name](rng, work_dir)
        self.samples = sum(part.samples for part in self.parts)

    def warm_up(self):
        for part in self.parts:
            part.warm_up()

    def study(self):
        return [part.study() for part in self.parts]

    def check(self, outcome):
        return [f for part, out in zip(self.parts, outcome) for f in part.check(out)]


# Three workloads fit the run budget with runs long enough to be steady on
# this machine; the wide-mixing and DT parts share one (see NOTES.md).
WORKLOADS = {
    "identify": lambda rng, work_dir: [Identify(rng, work_dir)],
    "track": lambda rng, work_dir: [Track(rng, work_dir, "pe"), Track(rng, work_dir, "nonpe")],
    "library": lambda rng, work_dir: [WideMix(rng), ExciteDt(rng)],
}
