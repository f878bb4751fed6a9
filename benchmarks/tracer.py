"""
Outside-in tracer: times calls into braidcob's public functions without
touching the package.

install() rebinds every traced function wherever a braidcob module holds a
reference to it (the defining module, the package namespace, and every
`from .x import f` in another module), so calls between modules pass through
a wrapper. Modules that import at call time (links.same_link imports
garside.normal_form) pick the wrapper up from the defining module.
uninstall() puts the original objects back.

Each call becomes a span [name, start, end, parent, op id, pass, note] kept
in memory; layer_metrics() turns the spans of one pass into per-layer counts
and self times (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# module -> functions traced in it; words is traced as a whole layer
TRACED = {
    "garside": ("normal_form", "equal"),
    "seifert": ("seifert_matrix",),
    "alexander": ("alexander",),
    "signature": ("signature_at", "sigma6"),
    "links": ("same_link",),
    "certificates": ("verify", "apply_step", "CobordismCertificate.from_json"),
    "replication": ("theorem_bound", "theorem_table"),
    "cli": ("main",),
}

NAME, START, END, PARENT, OP, PASS, NOTE = range(7)


def _words_functions(words):
    return tuple(
        name for name, obj in vars(words).items()
        if not name.startswith("_") and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == words.__name__
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self.pass_no = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._notes = {}

    # -- rebinding --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "braidcob" or n.startswith("braidcob.")]
        signature = sys.modules["braidcob.signature"]
        self._notes = {
            "signature.signature_at": _escalation_note(signature),
            "signature.sigma6": _sigma6_note,
            "seifert.seifert_matrix": lambda a, k, r: {"h": r.size},
            "garside.normal_form": lambda a, k, r: {"letters": len(a[0].letters)},
            "certificates.verify":
                lambda a, k, r: {"rejected": True} if r.bound_ok is False else None,
        }
        targets = [("words", f) for f in
                   _words_functions(sys.modules["braidcob.words"])]
        targets += [(m, f) for m, fs in TRACED.items() for f in fs]
        for mod_name, attr in targets:
            mod = sys.modules[f"braidcob.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:  # a static method, bound on its class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = self._notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   self.op_id, self.pass_no, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[NOTE] = note(args, kwargs, result)
                return result
            except Exception as exc:
                rec[NOTE] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "pass", "note")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _escalation_note(signature):
    def note(args, kwargs, profile):
        asked = args[2] if len(args) > 2 else kwargs.get("precision_bits")
        start = asked or signature.precision_default()
        return {"escalated": profile.precision_bits > start}
    return note


def _sigma6_note(args, kwargs, result):
    link = args[0]
    words = getattr(link, "closures", (link,))
    return {"closures": len(words),
            "keys": [(w.strands, w.letters) for w in words]}


def self_times(spans) -> list[float]:
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times of one pass's spans (indices local)."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for rec, t in zip(spans, own):
        layer = "words" if rec[NAME].startswith("words.") else rec[NAME]
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + t

    def under(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    notes = lambda name: [r[NOTE] or {} for r in spans if r[NAME] == name]
    sigma6_closures = sum(n.get("closures", 0)
                          for n in notes("signature.sigma6"))
    evals = sum(1 for i, r in enumerate(spans)
                if r[NAME] == "signature.signature_at"
                and under(i, "signature.sigma6"))
    # torus words per operation (one theorem table) and how many sigma6
    # calls theorem_bound spent on them
    bound_keys: dict[object, set] = {}
    bound_calls = 0
    for i, r in enumerate(spans):
        if r[NAME] == "signature.sigma6" and r[NOTE] \
                and under(i, "replication.theorem_bound"):
            bound_keys.setdefault(r[OP], set()).update(r[NOTE]["keys"])
            bound_calls += 1
    equal_idx = [i for i, r in enumerate(spans) if r[NAME] == "garside.equal"]
    with_nf = {r[PARENT] for r in spans if r[NAME] == "garside.normal_form"}
    cert_rejects = 0
    for r in spans:
        if r[NAME] in ("certificates.verify",
                       "certificates.CobordismCertificate.from_json"):
            note = r[NOTE] or {}
            cert_rejects += bool("raised" in note or note.get("rejected"))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in ("signature.sigma6", "signature.signature_at",
                  "alexander.alexander", "seifert.seifert_matrix",
                  "garside.normal_form", "garside.equal",
                  "certificates.verify", "certificates.apply_step",
                  "links.same_link", "replication.theorem_bound", "words"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["signature.signature_at.escalations"] = sum(
        1 for n in notes("signature.signature_at") if n.get("escalated"))
    out["signature.evals_per_sigma6"] = ratio(evals, sigma6_closures)
    out["seifert.seifert_matrix.h_max"] = max(
        (n.get("h", 0) for n in notes("seifert.seifert_matrix")), default=0)
    out["garside.normal_form.letters"] = sum(
        n.get("letters", 0) for n in notes("garside.normal_form"))
    out["garside.equal.shortcut_ratio"] = ratio(
        sum(1 for i in equal_idx if i not in with_nf), len(equal_idx))
    out["certificates.from_json_s"] = self_s.get(
        "certificates.CobordismCertificate.from_json", 0.0)
    out["certificates.rejects"] = cert_rejects
    out["replication.sigma6_reuse_ratio"] = ratio(
        sum(map(len, bound_keys.values())), bound_calls)
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    return out


def per_pass(spans) -> list[list[list]]:
    """Split spans by pass, re-indexing parents within each pass."""
    passes: dict[int, list[list]] = {}
    local_index: list[int] = []
    for rec in spans:
        group = passes.setdefault(rec[PASS], [])
        local_index.append(len(group))
        local = list(rec)
        if rec[PARENT] >= 0:
            local[PARENT] = local_index[rec[PARENT]]
        group.append(local)
    return [passes[k] for k in sorted(passes)]


def summarize(spans) -> dict[str, float]:
    """Counts from the first traced pass, times as the median over passes."""
    runs = [layer_metrics(p) for p in per_pass(spans)]
    out = dict(runs[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(r[key] for r in runs)
    return out
