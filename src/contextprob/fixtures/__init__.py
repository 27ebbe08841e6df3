"""Shipped demo data: rating tables, relations, scenarios, a toy corpus."""

from pathlib import Path

from .._labels import listing, shown

_NAMES = (
    "pet_context_ratings.tsv",
    "petfish_pet_ratings.tsv",
    "petfish_fish_ratings.tsv",
    "pet_fish_pairs.tsv",
    "pet_food_pairs.tsv",
    "pet_food_scenario.json",
    "tsirelson_pattern.json",
    "toy_corpus.txt",
)


def fixture_names() -> tuple[str, ...]:
    return _NAMES


def fixture_path(name: str) -> Path:
    """Filesystem path of a shipped fixture file."""
    if name not in _NAMES:
        raise ValueError(f"unknown fixture {shown(name)}; shipped fixtures: {listing(_NAMES)}")
    return Path(__file__).with_name(name)
