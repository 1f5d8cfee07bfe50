"""The three benchmark workloads: their inputs, configs and task variants.

Every workload runs the six pipeline stages once per variant per round. For
the generated corpora the workload seed is both the corpus seed and the
pipeline's `seed` key. toy-full's inputs are fixed, the bundled corpus and
`configs/toy.cfg` with its default seed: with 1-4 pretrain epochs and one
finetune epoch its cold-user Recall@20 ranged from 0.21 to 0.45 over
pipeline seeds 1-7, wider than any useful bound, while at one seed it
repeats exactly.

Epoch counts are far below `configs/toy.cfg` (16 pretrain, 16 finetune
epochs) so that two rounds of each workload fit in a benchmark run; the
per-epoch work is the same, so each layer's share of an epoch is unchanged.
"""

from dataclasses import dataclass
from pathlib import Path

from corpus import CorpusSpec, make_corpus, write_corpus

TASKS = ("Rg", "Cg", "Rp", "Cp")

# 3x the toy corpus's interactions; abundant users have twice its degree
GNN_CORPUS = CorpusSpec(n_users=320, n_items=160, n_blocks=4,
                        abundant_degree=(30, 44), cold_degree=(6, 11))
ABLATION_CORPUS = CorpusSpec(n_users=48, n_items=20, n_blocks=2, abundant_share=1 / 4,
                             abundant_degree=(10, 14), cold_degree=(4, 7))


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec | None  # None: the bundled data/toy.tsv
    base_config: str | None  # a config file of the repo, read first
    settings: tuple[tuple[str, str], ...]  # config lines after the base file
    variants: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]  # (name, --set overrides)
    beats_random: bool  # cold_recall must exceed a random ranking's expectation

    def prepare(self, root: Path, work: Path, seed: int):
        """Write the corpus (if generated) and the config; returns the config
        path and the corpus rows as (user, item, ts) triples."""
        lines = []
        if self.corpus is None:
            rows = _read_rows(root / "data" / "toy.tsv")
        else:
            rows = make_corpus(self.corpus, seed)
            write_corpus(work / "corpus.tsv", rows)
            lines.append(f"dataset_path = {work / 'corpus.tsv'}")
            lines.append(f"seed = {seed}")
        if self.base_config:
            lines.insert(0, (root / self.base_config).read_text())
        lines += [f"{k} = {v}" for k, v in self.settings]
        cfg_path = work / "bench.cfg"
        cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return cfg_path, rows


def _read_rows(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        u, i, ts = line.split("\t")
        rows.append((int(u), int(i), int(ts)))
    return rows


WORKLOADS = {
    # the paper's configuration on the bundled corpus, all four tasks
    "toy-full": Workload(
        "toy-full", None, "configs/toy.cfg", (("pretrain_epochs", "2"), ("finetune_epochs", "1")),
        (("full", ()),), beats_random=True),
    # GNN tasks only on a wider, denser corpus; plans re-sampled each epoch
    "gnn-wide": Workload(
        "gnn-wide", GNN_CORPUS, "configs/toy.cfg",
        (("user_threshold", "20"), ("item_threshold", "40"), ("gt_epochs", "5"),
         ("pretrain_epochs", "1"), ("finetune_epochs", "2")),
        (("Rg-Cg", (("tasks", "Rg,Cg"), ("replan_each_epoch", "true"))),), beats_random=True),
    # criterion 7's eight variants, each a full six-stage chain, on a tiny corpus
    "ablation-sweep": Workload(
        "ablation-sweep", ABLATION_CORPUS, None,
        (("d", "8"), ("lr", "0.02"), ("layers", "2"), ("path_len", "3"),
         ("k_intrinsic", "2"), ("k_extrinsic", "3"), ("user_threshold", "8"),
         ("item_threshold", "15"), ("c_frac", "0.4"), ("k_eval", "10"), ("gt_epochs", "5"),
         ("pretrain_epochs", "1"), ("finetune_epochs", "1"), ("recon_batch", "16"),
         ("contrast_batch", "8"), ("finetune_batch", "16"), ("blocks", "1"), ("heads", "2")),
        tuple([("-".join(v), (("tasks", ",".join(v)),)) for v in
               [[c] for c in TASKS] + [[c for c in TASKS if c != d] for d in TASKS]]),
        beats_random=False),
}
