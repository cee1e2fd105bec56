"""The bytes of ``comention run`` on the two canonical inputs at 1/8 scale and
on the full-size canonical corpus, and of ``comention ingest --aliases`` on a
small corpus.

Every file a pinned run writes is pinned by the sha256 its own
``manifest.json`` lists.  No stage calls BLAS or numpy's SIMD ``log``/``exp``
(the eigenvector norm is a ``math.fsum``, the power-law fits take
``math.log`` per distinct degree), so these bytes do not move with the BLAS
thread count or the CPU's SIMD level.  They still assume two things: the C
library's ``log``, ``exp`` and ``pow`` (glibc and macOS libm may round
differently; CI runs on Ubuntu only), and numpy's ``Generator`` streams,
which k-means draws from.  A change that moves a pinned byte on purpose
updates the pin and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from comention import synth
from comention.cli import main
from comention.typology import CATEGORIES

# input -> the "files" map of the run's manifest.json (file -> sha256); a
# "-full" input is the canonical one at full size, the rest are at 1/8
PINS = {
    "corpus": {
        "centrality.csv": "1e28b404fe3e8059bcb79fe4cd802bb86f882f463aa821d5c98f678705431745",
        "communities.csv": "6357ab19dc49ba3ae62db64458ecfb461c9d89fb515e5d2f4e6a9514727e314b",
        "community_types.csv": "e1b850bda1b93a2faeada331a7f54ef629a192c49cd1e47ad0d31f1c9974f781",
        "degree_dist.csv": "f96c76171fc99ca18e97f48be247dd2b54ca783d930f83d86e79d718afaa9318",
        "edges.csv": "e3aab1e0c6c237d910f30209f1ab63a7063a4e439f2452135c8be71cd9e658c0",
        "graph.graphml": "2e30556dec32d3fc4750070e37a550413030215ceb34e195f111d211104a0b99",
        "induced.dot": "a304f4674cf40044414dd3153469f395c9d23ec03d6fe3eba842cf7224e0d468",
        "induced.graphml": "2959cee0375bb23f77589a8def5b46ec0c35d51a67027892509c1c172467f70b",
        "induced.json": "4f0f1566b422d3eb209e51c41ddaa3c61ca4890102472d9952f6a45d137f1fe4",
        "ingest_stats.json": "dbd95ebceeba944208b2bfb47aba07ff3d6a7109b6c77b192af4ea75ffb1a020",
        "partition.csv": "20441febd26fbfbf20ddbc07178db7027e361119589fa4ad3fa0764640fcb5ef",
        "powerlaw.json": "054757293892240d967f2b0d1a18a317ca4f5268bf1f9c70e3a0fc472045eb85",
        "powerlaw_fit.csv": "89729965ee4166b77c5c1f53dd2b122757872872554cb0f773f4e1f175c58eaf",
        "profiles.csv": "26c0c480fe16a3e9a2ef0c3dc26486f2ace7447a0e5470b17204b8e51c1f38ea",
        "summary.json": "ff179945836fc5342a38b9165fe89f4f089beb9cb99e3790550c3a374ce2dbfe",
        "top10.csv": "aa246b27a8ac2cb71ac504891b6464a0b16fa64dcd841153428d3a989d1aeb8f",
        "top_members.csv": "598bfd96797b2f7c7f48c2c317c8bd1f7798ddaeca80f781c9796af531a4ff6b",
        "typology.csv": "8b368ca780a5554dce46cc09e52d66ad8dd45b3bf79e2705c1435a0728968822",
    },
    "corpus-full": {
        "centrality.csv": "cff8c5d940a13f467e04d42cb5e25f940773f3c541e001a2da128caaa09fbc06",
        "communities.csv": "195458dbebd2e4968db40f9dcd7739eda7be09ebfea3a5aa8cef3dd879cffacb",
        "community_types.csv": "e8bee79dd1ed819875c6b3ab562b2d855b018047755d610aeb9865334f9ddbb4",
        "degree_dist.csv": "9a8b28f222091be07f15cf6f1bbfeaf27cabfaaa1b951fde6fe5e613786bc3fa",
        "edges.csv": "041a247bd01389f20ed72b0bbab2e6a80fae12bdc6570fc412f3f6a7c84452e1",
        "graph.graphml": "fb6ba77715f5d76a2649299973bdc0f5a9946e680e9d2f8903506023f260edcd",
        "induced.dot": "a02dd1173d6ccbe946cdca374e286dec4e5806705d27bfddc7c8e39e35489884",
        "induced.graphml": "6a2606ffdf17986b8d1a60d79462817f6ced0d2131f5768c35fd882b012bdfa8",
        "induced.json": "de4d901f0d8564f62245882977281f1458439468b741469fd9111a7c92146c3c",
        "ingest_stats.json": "f32fa156c08396d1506a09d278c74668b786df4e71aad4d89dc383bc8760e527",
        "partition.csv": "2bb757e55deb25b77a3baf0b10519ec2252cd37b9d32f4893a9213812dfa7717",
        "powerlaw.json": "d8c4d1960ec0e1af29c17bcab4bad6978acde321c4f7d4c9030889eaa8aff023",
        "powerlaw_fit.csv": "c44224f6ea6af479b451f130f90b45a3c72b9a71a722c30f98b5f2eceb8e82fc",
        "profiles.csv": "9d405fdc41941470915f8b04e0e9b3f631bbe0f86e57aa19c154db23f5f60d2c",
        "summary.json": "af79b565452310d7afbfcde382c4a8d8bd090df600ab4e920e9583a15f7120e9",
        "top10.csv": "db0088b6e516bb087cc36ca8a6dee191614b8cb20b85589f6ed38db5734d1792",
        "top_members.csv": "3aa14e5dc2ad365ceb8d80915410eee630b563ce4b2876286bd0f1c488c44adf",
        "typology.csv": "143f1351c71dc09d71ad6a8aed635cebdb7fcc8a3642f362f87da035640c5188",
    },
    "bench-graph": {
        "centrality.csv": "aa8c75ed8b9ffd966e1e27b63f071940e8da55fc054a7f964493d7724738585d",
        "communities.csv": "74ac96f2924e8496d20ba28be964ae54e2fde8fc52e66cf8e810f0f4989845ef",
        "degree_dist.csv": "dc049d2e7d9dca12f524003088a84a993d8641a402e0ea96377e8458c0bde8e1",
        "edges.csv": "a3746ab53ba67fb49381192758bd2f8204225e11b0058a8a86964ea368b4789f",
        "graph.graphml": "80efca329c610343667b3866102ab41639473431c2971fb606b779f106710cdc",
        "induced.dot": "23cadb86d341cb380064a3a44f63537a3ed332f47877d79fd2e8d482830972f6",
        "induced.graphml": "69ff2acb287e7743d6e7be26890c7910b40c3c45a40c5df6b96d7e3e90628bc3",
        "induced.json": "cf717368170c6e55e51cde623413538e9aa490e8ab0fab0401743b64bc1123d7",
        "partition.csv": "684f675602910e0d48a495fc7ba4770c8f4129bf1795414ceace41127d01b3d8",
        "powerlaw.json": "c8d46b15a34884428729d1728386882de0d012d313d301feafd778488408ab85",
        "powerlaw_fit.csv": "33c34c703ab9395ba522516fa36fda12b11de421e81d0892186c6ed4430d5f3f",
        "summary.json": "e9866dac4693761fb3866e66fddbe86b9c58436f270b0f90b709fc268c0cd92c",
        "top10.csv": "172ad956a1110aae4c8c7a3318ebdacd41c4f1c1f4139bed93ebcee1efc1e778",
        "top_members.csv": "72bb870ac7efb128c5bbbcba23e09f84e63e180eb89e01fedce48b40a018cf35",
    },
}


def write_inputs(name, directory, scale=8):
    """The canonical input at 1/``scale`` size and its ``run`` arguments.  The
    corpus gets an affiliation table, one of the categories per person drawn
    from the seed."""
    if name == "corpus":
        records = synth.generate_corpus(round(5200 / scale), round(10500 / scale), 7)
        path = directory / "articles.jsonl"
        synth.write_articles_jsonl(records, path)
        names = sorted({p for r in records for p in r.persons})
        picks = np.random.default_rng([7, 1]).integers(len(CATEGORIES), size=len(names))
        affiliations = directory / "affiliations.csv"
        affiliations.write_text("name,category\n" + "".join(
            f"{n},{CATEGORIES[c]}\n" for n, c in zip(names, picks.tolist())),
            encoding="utf-8")
        return ["--input", path, "--affiliations", affiliations, "--seed", "7"]
    path = directory / "edges.csv"
    pairs = synth.benchmark_graph(round(11118 / scale), round(37544 / scale), 11)
    path.write_text("source,target\n" + "".join(f"{a},{b}\n" for a, b in pairs),
                    encoding="utf-8")
    return ["--input", path, "--input-format", "edges", "--seed", "11"]


def run_outputs(name, directory, threads):
    """``run`` on a pinned input; a "-full" name is its canonical input at full size."""
    out = directory / "out"
    base = name.removesuffix("-full")
    argv = write_inputs(base, directory, scale=8 if base == name else 1) + [
        "--threads", str(threads), "--min-community-size", "25", "--out-dir", out]
    assert main(["run", *map(str, argv)]) == 0
    return out


# `ingest --aliases` on write_alias_inputs' corpus
ALIAS_PINS = {
    "edges.csv": "d84020811a4c50558a19a0fa01e1c995d728d1c0c004d316c3226108f3630996",
    "ingest_stats.json": "4c1e531248983926ad3fbc14e68efadbdbd0fd1535e7355518e7c5de1529d632",
}


def write_alias_inputs(directory):
    """A 200-article corpus whose alias table folds persons named in the same
    article onto each other; some mentions and alias rows carry stray
    whitespace, so the fold runs on normalized names.  Two leading articles
    fold down to one person each, so neither adds a node."""
    records = synth.generate_corpus(200, 400, 5)
    names = sorted({p for r in records for p in r.persons})
    # every seventh name from the second on folds onto its predecessor, which
    # is never an alias; neighbours share the corpus's coverage articles
    aliases = {names[i]: names[i - 1] for i in range(1, len(names), 7)}
    aliases["Lone A."] = "Lone B."
    lines = ['{"id": "x1", "persons": ["Lone A.", "Lone B.", " Lone  A."]}',
             '{"id": "x2", "persons": ["P00008", "P00007"]}']
    for j, r in enumerate(records):
        persons = [f"  {p}\t" if (j + k) % 5 == 0 else p for k, p in enumerate(r.persons)]
        lines.append(json.dumps({"id": r.id, "persons": persons, "date": r.date}))
    path = directory / "articles.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = directory / "aliases.csv"
    table.write_text("alias,canonical\n" + "".join(
        f" {a} ,{c}\n" if i % 2 else f"{a},{c}\n"
        for i, (a, c) in enumerate(aliases.items())), encoding="utf-8")
    return ["--input", path, "--aliases", table]


def test_alias_ingest_pinned(tmp_path):
    """The bytes of ``ingest --aliases`` when aliases merge persons within an article."""
    out = tmp_path / "out"
    assert main(["ingest", *map(str, write_alias_inputs(tmp_path)), "--out-dir", str(out)]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ALIAS_PINS}
    assert digests == ALIAS_PINS


@pytest.mark.parametrize("name", sorted(PINS))
def test_run_outputs_pinned(name, tmp_path, capsys):
    """The pinned run's bytes, then an audit of it that passes every check."""
    out = run_outputs(name, tmp_path, threads=2)
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"] == PINS[name]
    capsys.readouterr()
    rc = main(["audit", "--out-dir", str(out)])
    checks = capsys.readouterr().out.splitlines()
    assert rc == 0, [line for line in checks if line.startswith("FAIL")]
    assert {"graphml:", "edge_list:"} <= {line.split()[1] for line in checks
                                          if line.startswith("ok")}
