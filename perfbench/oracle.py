"""Output checks written independently of the gridisland package.

Everything here is recomputed from the case document with plain numpy:
canonical line order, DC angles, Kron reduction, the slow eigenbasis,
the coherency matrix L and the weighted targets.  The objective is
checked through its partition closed form

    J(S) = sum over components C of (V, S) of ||sum_{b in C} T_b||^2 / |C|,

which needs none of the package's projection code.  Each check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-11   # reports round every float to 12 decimals


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want) + ABS_TOL


class Network:
    """The parts of a native case document the checks need."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.base_mva = float(doc["base_mva"])
        self.omega0 = 2 * np.pi * float(doc.get("base_freq_hz", 60.0))
        self.ids = sorted(int(b["id"]) for b in doc["buses"])
        self.pos = {b: k for k, b in enumerate(self.ids)}
        # canonical order: (smaller id, larger id, position in the file)
        raw = sorted(
            (min(int(b["from"]), int(b["to"])), max(int(b["from"]), int(b["to"])),
             k, float(b["x_pu"]))
            for k, b in enumerate(doc["branches"])
        )
        self.lines = [(i, j, x) for i, j, _, x in raw]
        self.gens = doc["gens"]
        self.gen_bus = [int(g["bus"]) for g in self.gens]
        m = len(self.ids)
        load = np.zeros(m)
        for b in doc["buses"]:
            load[self.pos[int(b["id"])]] = float(b["pd_mw"])
        gen = np.zeros(m)
        for g in self.gens:
            gen[self.pos[int(g["bus"])]] += float(g["pg_mw"])
        gen[self.pos[int(doc["slack_bus"])]] += load.sum() - gen.sum()
        self.slack = self.pos[int(doc["slack_bus"])]
        self.b0 = load - gen
        self.p_pu = (gen - load) / self.base_mva

    @property
    def m(self) -> int:
        return len(self.ids)

    def coherency(self, refs: list[int]) -> np.ndarray:
        """L = U U_refs^{-1} for the len(refs) slowest swing modes."""
        m, r = self.m, len(refs)
        Y = np.zeros((m, m))
        for i, j, x in self.lines:
            a, b = self.pos[i], self.pos[j]
            Y[a, a] += 1.0 / x
            Y[b, b] += 1.0 / x
            Y[a, b] -= 1.0 / x
            Y[b, a] -= 1.0 / x
        keep = [k for k in range(m) if k != self.slack]
        theta = np.zeros(m)
        theta[keep] = np.linalg.solve(Y[np.ix_(keep, keep)], self.p_pu[keep])
        g = [self.pos[b] for b in self.gen_bus]
        o = [k for k in range(m) if k not in set(g)]
        B = Y[np.ix_(g, g)] - Y[np.ix_(g, o)] @ np.linalg.solve(
            Y[np.ix_(o, o)], Y[np.ix_(o, g)])
        B = 0.5 * (B + B.T)
        v = np.array([float(x.get("vm_pu", 1.0)) for x in self.gens])
        delta = theta[g] + np.array([
            float(x["xd_prime_pu"]) * float(x["pg_mw"]) / self.base_mva
            for x in self.gens]) / v
        K = -np.outer(v, v) * B * np.cos(delta[:, None] - delta[None, :])
        np.fill_diagonal(K, 0.0)
        np.fill_diagonal(K, -K.sum(axis=1))
        K = 0.5 * (K + K.T)
        d = np.sqrt([2.0 * float(x["inertia_s"]) / self.omega0
                     for x in self.gens])
        Ks = K / np.outer(d, d)
        vals, vecs = np.linalg.eigh(0.5 * (Ks + Ks.T))
        pick = sorted(range(len(vals)),
                      key=lambda k: (abs(vals[k]), vals[k], k))[:r]
        U = vecs[:, pick] / d[:, None]
        return U @ np.linalg.inv(U[refs, :])

    def targets(self, L: np.ndarray, refs: list[int], xi: float) -> np.ndarray:
        """Weighted target block [sqrt(xi) b0, c^1, ..., c^n]."""
        c = np.zeros((self.m, len(self.gens)))
        for i, bus in enumerate(self.gen_bus):
            c[self.pos[bus], i] += 1.0
            for k, ref in enumerate(refs):
                c[self.pos[self.gen_bus[ref]], i] -= L[i, k]
        return np.column_stack([np.sqrt(xi) * self.b0, c])

    def components(self, kept) -> tuple[np.ndarray, bool]:
        """Component label per bus position, and whether `kept` is a forest."""
        parent = list(range(self.m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        forest = True
        for e in kept:
            i, j, _ = self.lines[e]
            ra, rb = find(self.pos[i]), find(self.pos[j])
            if ra == rb:
                forest = False
            parent[ra] = rb
        roots = [find(k) for k in range(self.m)]
        _, labels = np.unique(roots, return_inverse=True)
        return labels, forest


def partition_value(labels: np.ndarray, T: np.ndarray) -> float:
    """sum over components C of ||sum_{b in C} T_b||^2 / |C|."""
    k = labels.max() + 1
    sums = np.zeros((k, T.shape[1]))
    np.add.at(sums, labels, T)
    sizes = np.bincount(labels, minlength=k)
    return float(((sums * sums).sum(axis=1) / sizes).sum())


def check_refsel(net: Network, report: dict, r: int) -> list[str]:
    problems = []
    for rule in ("greedy", "pivoting"):
        buses = report.get(rule, [])
        if len(set(buses)) != r or len(buses) != r:
            problems.append(f"{rule}: {buses} is not {r} distinct buses")
        if not set(buses) <= set(net.gen_bus):
            problems.append(f"{rule}: {buses} names a bus with no generator")
    return problems


def check_run(net: Network, report: dict, r: int, xis: list[float],
              methods: list[str]) -> list[str]:
    used = report["refs"]["used"]
    problems = check_refsel(net, {"greedy": used, "pivoting": used}, r)
    if problems:
        return problems
    shape = {"buses": net.m, "branches": len(net.lines),
             "generators": len(net.gens)}
    if report["case"] != shape:
        problems.append(f"case shape {report['case']} != {shape}")
    if [e["xi"] for e in report["runs"]] != xis:
        problems.append(f"xi list {[e['xi'] for e in report['runs']]} != {xis}")
    refs = [net.gen_bus.index(b) for b in used]
    L = net.coherency(refs)
    for xi, entry in zip(xis, report["runs"]):
        if sorted(entry["methods"]) != sorted(methods):
            problems.append(f"xi={xi}: methods {sorted(entry['methods'])}")
        T = net.targets(L, refs, xi)
        for name, sol in entry["methods"].items():
            problems += [f"xi={xi} {name}: {p}"
                         for p in check_solution(net, L, refs, T, sol, used)]
    return problems


def check_solution(net, L, refs, T, sol, used) -> list[str]:
    problems = []
    r = len(refs)
    islands = sol["islands"]
    if sorted(b for isl in islands for b in isl) != net.ids:
        return [f"islands do not partition the buses: {islands}"]
    island = np.empty(net.m, dtype=int)
    for k, isl in enumerate(islands):
        island[[net.pos[b] for b in isl]] = k
    kept = sol["kept"]
    if len(set(kept)) != len(kept) or not all(
            0 <= e < len(net.lines) for e in kept):
        return [f"kept lines are not distinct canonical indices: {kept}"]
    labels, forest = net.components(kept)
    groups = sol["generator_groups"]
    if sol["method"] == "weak-submodular":
        if not forest or len(kept) != net.m - r:
            problems.append(f"kept lines are not a forest of {r} trees")
        if len(islands) != r or any(used[k] not in islands[k] for k in range(r)):
            problems.append("island k does not hold reference bus used[k]")
        for e in kept:
            i, j, _ = net.lines[e]
            if island[net.pos[i]] != island[net.pos[j]]:
                problems.append(f"kept line {i}-{j} joins two islands")
                break
        want = [sorted(i for i, b in enumerate(net.gen_bus)
                       if island[net.pos[b]] == k) for k in range(r)]
        if groups != want:
            problems.append(f"generator groups {groups} != {want}")
        cols = [int(island[net.pos[b]]) for b in net.gen_bus]
    else:
        for k, grp in enumerate(groups):
            outside = [i for i in grp if net.gen_bus[i] not in islands[k]]
            if outside:
                problems.append(f"island {k} misses generators {outside}")
        if sorted(i for grp in groups for i in grp) != list(range(len(net.gen_bus))):
            problems.append(f"generator groups {groups} do not partition")
        col = [None] * len(groups)
        for k, grp in enumerate(groups):
            inside = [j for j, g in enumerate(refs) if g in grp]
            if len(inside) == 1:
                col[k] = inside[0]
        if None in col or len(set(col)) != len(col):
            col = min(itertools.permutations(range(r)),
                      key=lambda p: _group_cost(L, groups, p))
        cols = [0] * len(net.gen_bus)
        for k, grp in enumerate(groups):
            for i in grp:
                cols[i] = col[k]
    kept_set = set(kept)
    cut = sorted(f"{i}-{j}" for e, (i, j, _) in enumerate(net.lines)
                 if e not in kept_set and island[net.pos[i]] != island[net.pos[j]])
    if sol["cutset"] != cut:
        problems.append(f"cutset {sol['cutset']} != crossing lines {cut}")
    J = partition_value(labels, T)
    if not close(sol["J"], J):
        problems.append(f"J {sol['J']!r} != closed form {J!r}")
    sqrt_f = float(np.sqrt(partition_value(labels, net.b0[:, None])))
    if not close(sol["sqrt_f_mw"], sqrt_f):
        problems.append(f"sqrt_f_mw {sol['sqrt_f_mw']!r} != {sqrt_f!r}")
    L_g = np.zeros_like(L)
    L_g[np.arange(len(cols)), cols] = 1.0
    H = float(((L - L_g) ** 2).sum())
    if not close(sol["H_bar"], H):
        problems.append(f"H_bar {sol['H_bar']!r} != ||L - L_g||^2 {H!r}")
    return problems


def _group_cost(L, groups, perm) -> float:
    L_g = np.zeros_like(L)
    for k, grp in enumerate(groups):
        L_g[grp, perm[k]] = 1.0
    return float(((L - L_g) ** 2).sum())
