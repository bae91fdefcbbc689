"""Input files and categorical datasets: the one reader of every input
file, CSV ingestion, balancing, splitting, and the seed-string synthetic
generator with its ground-truth labelling rule."""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from .kb import CLASS_ATOM_NAME, _check_name


@dataclass(frozen=True)
class Instance:
    values: dict[str, str]
    label: bool


@dataclass(frozen=True)
class Dataset:
    """Categorical feature vectors with binary labels.

    ``domains`` records the observed value set per feature.  Instances are
    validated against the schema at construction; the dataset is immutable
    afterwards.
    """

    features: tuple[str, ...]
    domains: dict[str, frozenset[str]]
    instances: tuple[Instance, ...]

    def __init__(self, features, domains, instances):
        features = tuple(features)
        if not features:
            raise ValueError("dataset needs at least one feature")
        for i, f in enumerate(features):
            _check_name("feature name", f)
            if f == CLASS_ATOM_NAME:
                raise ValueError(f"feature name {CLASS_ATOM_NAME!r} is reserved")
            if f in features[:i]:
                raise ValueError(f"feature {f!r} repeated")
        missing = [f for f in features if f not in domains]
        if missing:
            raise ValueError(f"no domain given for features {missing}")
        domains = {f: frozenset(domains[f]) for f in features}
        for f, vs in domains.items():
            for v in vs:
                _check_name("feature value", v)
        instances = tuple(instances)
        for inst in instances:
            if set(inst.values) != set(features):
                raise ValueError(
                    f"instance features {sorted(inst.values)} do not match schema"
                )
            for f, v in inst.values.items():
                if v not in domains[f]:
                    raise ValueError(f"value {v!r} not in domain of {f!r}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "instances", instances)

    def __len__(self) -> int:
        return len(self.instances)

    def __repr__(self) -> str:
        return (
            f"Dataset(<{len(self.features)} features, {len(self.instances)} instances, "
            f"{self.n_positive} positive>)"
        )

    @property
    def n_positive(self) -> int:
        return sum(1 for i in self.instances if i.label)

    @property
    def n_negative(self) -> int:
        return len(self.instances) - self.n_positive

    def replace_instances(self, instances) -> "Dataset":
        return Dataset(self.features, self.domains, instances)


def from_rows(features, rows) -> Dataset:
    """Build a dataset from (values, label) pairs, inferring domains."""
    features = tuple(features)
    instances = [Instance(dict(zip(features, vals)), bool(label)) for vals, label in rows]
    domains = {f: set() for f in features}
    for inst in instances:
        for f, v in inst.values.items():
            domains[f].add(v)
    return Dataset(features, domains, instances)


def read_text(path, raw: bytes | None = None) -> str:
    """A file's text, read as UTF-8 after an optional byte-order mark, line
    ends untouched; ValueError naming the file if it is not UTF-8.  ``raw``
    is the file's bytes when they have been read already."""
    try:
        return (Path(path).read_bytes() if raw is None else raw).decode(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """A CSV's header and rows, read through :func:`read_text`; ValueError
    naming the file if it is empty, a row's cell count differs from the
    header's, or the csv module cannot read a row (a cell over its field
    size limit, say)."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    for line_no, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}")
    return header, body


def load_csv(path, label_column: str, positive_label: str) -> Dataset:
    """Load a header-rowed CSV; non-label columns become categorical features.

    Cells are taken verbatim as categorical strings.  Empty cells, ragged
    rows and a repeated column name are rejected; there is no
    missing-value handling.  A leading UTF-8 byte-order mark is skipped.
    """
    header, body = read_csv(path)
    if label_column not in header:
        raise ValueError(f"{path}: label column {label_column!r} not in header")
    label_idx = header.index(label_column)
    features = [h for i, h in enumerate(header) if i != label_idx]
    if label_column in features:
        raise ValueError(f"{path}: label column {label_column!r} repeated")
    rows = []
    for line_no, row in enumerate(body, start=2):
        if any(cell == "" for cell in row):
            raise ValueError(f"{path}: row {line_no} has an empty cell")
        label = row[label_idx] == positive_label
        vals = [cell for i, cell in enumerate(row) if i != label_idx]
        rows.append((vals, label))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return from_rows(features, rows)


def balance(ds: Dataset, rng_seed: int) -> Dataset:
    """Equalise class counts by replicating random samples of the smaller class."""
    pos = [i for i in ds.instances if i.label]
    neg = [i for i in ds.instances if not i.label]
    if not pos or not neg:
        raise ValueError("both classes must be non-empty to balance")
    if len(pos) == len(neg):
        return ds
    rng = random.Random(rng_seed)
    smaller = pos if len(pos) < len(neg) else neg
    deficit = abs(len(pos) - len(neg))
    additions = [rng.choice(smaller) for _ in range(deficit)]
    return ds.replace_instances(list(ds.instances) + additions)


def split(ds: Dataset, train_fraction: float, rng_seed: int) -> tuple[Dataset, Dataset]:
    """Shuffle with the seeded generator and cut at floor(fraction * n)."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = random.Random(rng_seed)
    order = list(ds.instances)
    rng.shuffle(order)
    cut = int(train_fraction * len(order))
    return ds.replace_instances(order[:cut]), ds.replace_instances(order[cut:])


@dataclass(frozen=True)
class SeedSpec:
    """Hidden ground truth for synthetic string data.

    A string is positive iff it agrees with ``seed`` in exactly
    ``match_count`` positions.  Symbols are the single digits
    1..alphabet_size (alphabet sizes above 9 are not supported).
    """

    seed: str
    length: int
    alphabet_size: int
    match_count: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be positive")
        if not 2 <= self.alphabet_size <= 9:
            raise ValueError("alphabet_size must be in [2, 9]")
        if len(self.seed) != self.length:
            raise ValueError(f"seed length {len(self.seed)} != {self.length}")
        if not 0 <= self.match_count <= self.length:
            raise ValueError("match_count must be in [0, length]")
        bad = set(self.seed) - set(self.alphabet)
        if bad:
            raise ValueError(f"seed symbols {sorted(bad)} outside alphabet")

    @property
    def alphabet(self) -> str:
        return "123456789"[: self.alphabet_size]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f"a{i}" for i in range(1, self.length + 1))


def random_seed_spec(length: int, alphabet_size: int, match_count: int, rng_seed: int) -> SeedSpec:
    rng = random.Random(rng_seed)
    alphabet = "123456789"[:alphabet_size]
    seed = "".join(rng.choice(alphabet) for _ in range(length))
    return SeedSpec(seed, length, alphabet_size, match_count)


def label_synthetic(s: str, spec: SeedSpec) -> bool:
    """True iff ``s`` matches the seed in exactly ``match_count`` positions."""
    if len(s) != spec.length:
        raise ValueError(f"string length {len(s)} != {spec.length}")
    bad = set(s) - set(spec.alphabet)
    if bad:
        raise ValueError(f"symbols {sorted(bad)} outside alphabet")
    matches = sum(1 for a, b in zip(s, spec.seed) if a == b)
    return matches == spec.match_count


def generate_synthetic(spec: SeedSpec, n_samples: int, rng_seed: int) -> Dataset:
    """Draw uniform strings until both class buckets are full.

    Produces n_samples//2 positives and the rest negatives, features named
    a1..aN, labels from :func:`label_synthetic`.  Deterministic per seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    want_pos = n_samples // 2
    want_neg = n_samples - want_pos
    if want_pos == 0:
        raise ValueError("n_samples too small to contain both classes")
    rng = random.Random(rng_seed)
    features = spec.feature_names
    rows = []
    n_pos = n_neg = 0
    attempts = 0
    # P(exactly m matches) > 0 for any valid spec; the cap guards against
    # pathological acceptance rates rather than impossibility.
    max_attempts = 10_000 * n_samples + 1_000_000
    while n_pos < want_pos or n_neg < want_neg:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"gave up after {attempts} draws; class probability too small"
            )
        s = "".join(rng.choice(spec.alphabet) for _ in range(spec.length))
        label = label_synthetic(s, spec)
        if label and n_pos < want_pos:
            n_pos += 1
        elif not label and n_neg < want_neg:
            n_neg += 1
        else:
            continue
        rows.append((tuple(s), label))
    domains = {f: frozenset(spec.alphabet) for f in features}
    instances = [Instance(dict(zip(features, vals)), label) for vals, label in rows]
    return Dataset(features, domains, instances)


LABEL_COLUMN = "label"
POSITIVE_LABEL = "pos"
NEGATIVE_LABEL = "neg"
DATA_FILENAME = "data.csv"
SEED_FILENAME = "seed.json"


def save_synthetic(ds: Dataset, spec: SeedSpec, out_dir) -> None:
    """Write data.csv plus a seed.json sidecar with the ground truth."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / DATA_FILENAME, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.features) + [LABEL_COLUMN])
        for inst in ds.instances:
            row = [inst.values[f] for f in ds.features]
            row.append(POSITIVE_LABEL if inst.label else NEGATIVE_LABEL)
            writer.writerow(row)
    with open(out / SEED_FILENAME, "w", encoding="utf-8") as fh:
        json.dump(asdict(spec), fh, indent=2)
        fh.write("\n")


def load_seed_spec(path) -> SeedSpec:
    """Read a seed.json sidecar: a JSON object whose ``seed`` is a string
    and whose ``length``, ``alphabet_size`` and ``match_count`` are
    integers that make a valid :class:`SeedSpec`; ValueError naming the
    file otherwise.  A leading UTF-8 byte-order mark is skipped."""
    try:
        d = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ValueError(f"{path}: not a JSON object")
    for name, kind in (("seed", str), ("length", int), ("alphabet_size", int),
                       ("match_count", int)):
        if not isinstance(d.get(name), kind) or isinstance(d[name], bool):
            noun = "a string" if kind is str else "an integer"
            raise ValueError(f"{path}: field {name!r} must be {noun}")
    try:
        return SeedSpec(d["seed"], d["length"], d["alphabet_size"], d["match_count"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_synthetic(dir_path) -> tuple[Dataset, SeedSpec]:
    d = Path(dir_path)
    ds = load_csv(d / DATA_FILENAME, LABEL_COLUMN, POSITIVE_LABEL)
    return ds, load_seed_spec(d / SEED_FILENAME)
