"""Synthetic data generators for the six evaluation competitions.

Each generator reproduces the schema, value ranges, missing-data pattern,
and target structure of the corresponding Kaggle dataset, with a learnable
(but noisy) relationship between features and target so the downstream
model-performance intent measure responds to data-preparation changes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..minipandas import DataFrame

__all__ = [
    "generate_titanic",
    "generate_house",
    "generate_nlp",
    "generate_spaceship",
    "generate_medical",
    "generate_sales",
]


def _with_missing(rng: np.random.Generator, values: List, rate: float) -> List:
    """Blank out a fraction of *values* (None markers)."""
    out = list(values)
    mask = rng.random(len(out)) < rate
    for pos in np.flatnonzero(mask):
        out[pos] = None
    return out


def generate_titanic(rng: np.random.Generator, n_rows: int = 900) -> DataFrame:
    """Titanic passenger manifest: predict ``Survived``."""
    pclass = rng.choice([1, 2, 3], size=n_rows, p=[0.24, 0.21, 0.55])
    sex = rng.choice(["male", "female"], size=n_rows, p=[0.65, 0.35])
    age = np.clip(rng.normal(29, 14, n_rows), 0.4, 80).round(1)
    sibsp = rng.choice([0, 1, 2, 3, 4], size=n_rows, p=[0.68, 0.23, 0.05, 0.03, 0.01])
    parch = rng.choice([0, 1, 2, 3], size=n_rows, p=[0.76, 0.13, 0.09, 0.02])
    fare = np.round(np.exp(rng.normal(2.9, 0.9, n_rows)) * (4 - pclass) / 2, 2)
    embarked = rng.choice(["S", "C", "Q"], size=n_rows, p=[0.72, 0.19, 0.09])

    logits = (
        1.2 * (sex == "female").astype(float)
        - 0.45 * (pclass - 2)
        - 0.012 * (age - 29)
        + 0.004 * fare
        - 1.0
        + rng.normal(0, 0.8, n_rows)
    )
    survived = (logits > 0).astype(int)
    cabins = [
        f"{rng.choice(list('ABCDEF'))}{rng.integers(1, 130)}" for _ in range(n_rows)
    ]
    return DataFrame(
        {
            "PassengerId": list(range(1, n_rows + 1)),
            "Survived": survived.tolist(),
            "Pclass": pclass.tolist(),
            "Name": [f"Passenger, P. {i}" for i in range(n_rows)],
            "Sex": sex.tolist(),
            "Age": _with_missing(rng, age.tolist(), 0.20),
            "SibSp": sibsp.tolist(),
            "Parch": parch.tolist(),
            "Ticket": [f"T{rng.integers(10000, 99999)}" for _ in range(n_rows)],
            "Fare": fare.tolist(),
            "Cabin": _with_missing(rng, cabins, 0.77),
            "Embarked": _with_missing(rng, embarked.tolist(), 0.02),
        }
    )


def generate_house(rng: np.random.Generator, n_rows: int = 1200) -> DataFrame:
    """House-price table: predict ``SalePrice`` (regression)."""
    lot_area = rng.integers(1500, 21000, n_rows)
    lot_frontage = np.round(np.sqrt(lot_area) * rng.normal(1.0, 0.1, n_rows), 0)
    overall_qual = rng.integers(1, 11, n_rows)
    year_built = rng.integers(1900, 2011, n_rows)
    gr_liv_area = rng.integers(500, 4500, n_rows)
    garage_cars = rng.choice([0, 1, 2, 3], size=n_rows, p=[0.06, 0.26, 0.56, 0.12])
    basement = rng.integers(0, 2200, n_rows)
    neighborhood = rng.choice(
        ["NAmes", "CollgCr", "OldTown", "Edwards", "Somerst"],
        size=n_rows,
        p=[0.3, 0.25, 0.2, 0.15, 0.1],
    )
    house_style = rng.choice(["1Story", "2Story", "1.5Fin"], size=n_rows, p=[0.5, 0.35, 0.15])
    price = (
        15000
        + 52 * gr_liv_area
        + 11000 * overall_qual
        + 9000 * garage_cars
        + 14 * basement
        + 120 * (year_built - 1900)
        + rng.normal(0, 18000, n_rows)
    ).round(0)
    return DataFrame(
        {
            "Id": list(range(1, n_rows + 1)),
            "LotArea": lot_area.tolist(),
            "LotFrontage": _with_missing(rng, lot_frontage.tolist(), 0.18),
            "OverallQual": overall_qual.tolist(),
            "YearBuilt": year_built.tolist(),
            "GrLivArea": gr_liv_area.tolist(),
            "GarageCars": garage_cars.tolist(),
            "TotalBsmtSF": basement.tolist(),
            "GarageYrBlt": _with_missing(rng, (year_built + rng.integers(0, 3, n_rows)).tolist(), 0.06),
            "Neighborhood": neighborhood.tolist(),
            "HouseStyle": house_style.tolist(),
            "MasVnrArea": _with_missing(rng, rng.integers(0, 1200, n_rows).tolist(), 0.01),
            "SalePrice": price.tolist(),
        }
    )


def generate_nlp(rng: np.random.Generator, n_rows: int = 1800) -> DataFrame:
    """Disaster-tweets table: predict ``target`` from tweet metadata."""
    keywords = ["fire", "flood", "earthquake", "storm", "crash", "safe", "music", "game"]
    disaster_words = {"fire", "flood", "earthquake", "storm", "crash"}
    keyword = rng.choice(keywords, size=n_rows)
    length = rng.integers(20, 140, n_rows)
    exclamations = rng.poisson(0.7, n_rows)
    hashtags = rng.poisson(1.1, n_rows)
    is_disaster_kw = np.array([k in disaster_words for k in keyword], dtype=float)
    logits = 1.6 * is_disaster_kw + 0.01 * (length - 80) - 0.9 + rng.normal(0, 0.9, n_rows)
    target = (logits > 0).astype(int)
    texts = [
        f"{'BREAKING ' if t else ''}report about {k} number {i}"
        for i, (k, t) in enumerate(zip(keyword, target))
    ]
    locations = rng.choice(["USA", "UK", "Canada", "India", "remote"], size=n_rows)
    return DataFrame(
        {
            "id": list(range(n_rows)),
            "keyword": _with_missing(rng, keyword.tolist(), 0.06),
            "location": _with_missing(rng, locations.tolist(), 0.33),
            "text": texts,
            "char_count": length.tolist(),
            "exclamation_count": exclamations.tolist(),
            "hashtag_count": hashtags.tolist(),
            "target": target.tolist(),
        }
    )


def generate_spaceship(rng: np.random.Generator, n_rows: int = 1500) -> DataFrame:
    """Spaceship-Titanic manifest: predict ``Transported``."""
    home = rng.choice(["Earth", "Europa", "Mars"], size=n_rows, p=[0.54, 0.25, 0.21])
    cryo = rng.choice([True, False], size=n_rows, p=[0.36, 0.64])
    age = np.clip(rng.normal(29, 14, n_rows), 0, 79).round(0)
    vip = rng.choice([True, False], size=n_rows, p=[0.02, 0.98])
    spend = lambda scale: np.where(
        cryo, 0.0, np.round(np.exp(rng.normal(scale, 1.4, n_rows)), 0)
    )
    room_service = spend(4.2)
    food_court = spend(4.6)
    spa = spend(4.1)
    vr_deck = spend(4.0)
    destination = rng.choice(
        ["TRAPPIST-1e", "55 Cancri e", "PSO J318.5-22"], size=n_rows, p=[0.69, 0.21, 0.10]
    )
    logits = (
        1.4 * cryo.astype(float)
        + 0.5 * (home == "Europa").astype(float)
        - 0.0004 * (room_service + spa + vr_deck)
        - 0.1
        + rng.normal(0, 0.8, n_rows)
    )
    transported = (logits > 0).astype(int)
    cabins = [
        f"{rng.choice(list('BFGE'))}/{rng.integers(0, 1800)}/{rng.choice(['P', 'S'])}"
        for _ in range(n_rows)
    ]
    return DataFrame(
        {
            "PassengerId": [f"{i:04d}_01" for i in range(n_rows)],
            "HomePlanet": _with_missing(rng, home.tolist(), 0.02),
            "CryoSleep": _with_missing(rng, cryo.tolist(), 0.02),
            "Cabin": _with_missing(rng, cabins, 0.02),
            "Destination": _with_missing(rng, destination.tolist(), 0.02),
            "Age": _with_missing(rng, age.tolist(), 0.02),
            "VIP": _with_missing(rng, vip.tolist(), 0.02),
            "RoomService": _with_missing(rng, room_service.tolist(), 0.02),
            "FoodCourt": _with_missing(rng, food_court.tolist(), 0.02),
            "Spa": _with_missing(rng, spa.tolist(), 0.02),
            "VRDeck": _with_missing(rng, vr_deck.tolist(), 0.02),
            "Transported": transported.tolist(),
        }
    )


def generate_medical(rng: np.random.Generator, n_rows: int = 768) -> DataFrame:
    """Pima Indians diabetes table: predict ``Outcome``."""
    pregnancies = rng.poisson(3.8, n_rows)
    glucose = np.clip(rng.normal(121, 31, n_rows), 0, 199).round(0)
    blood_pressure = np.clip(rng.normal(69, 19, n_rows), 0, 122).round(0)
    skin = np.clip(rng.normal(29, 16, n_rows), 0, 110).round(0)
    insulin = np.clip(rng.normal(80, 110, n_rows), 0, 846).round(0)
    bmi = np.clip(rng.normal(32, 7.9, n_rows), 0, 67).round(1)
    pedigree = np.round(np.exp(rng.normal(-1.0, 0.6, n_rows)), 3)
    age = np.clip(rng.normal(33, 12, n_rows), 21, 81).round(0)
    logits = (
        0.03 * (glucose - 121)
        + 0.08 * (bmi - 32)
        + 0.03 * (age - 33)
        + 0.1 * pregnancies
        - 0.8
        + rng.normal(0, 1.0, n_rows)
    )
    outcome = (logits > 0).astype(int)
    return DataFrame(
        {
            "Pregnancies": pregnancies.tolist(),
            "Glucose": glucose.tolist(),
            "BloodPressure": blood_pressure.tolist(),
            "SkinThickness": _with_missing(rng, skin.tolist(), 0.08),
            "Insulin": _with_missing(rng, insulin.tolist(), 0.12),
            "BMI": bmi.tolist(),
            "DiabetesPedigreeFunction": pedigree.tolist(),
            "Age": age.tolist(),
            "Outcome": outcome.tolist(),
        }
    )


def generate_sales(rng: np.random.Generator, n_rows: int = 40000) -> DataFrame:
    """Future-sales transactions: predict ``item_cnt_day`` (regression).

    The paper's Sales table has 744k tuples; we scale to 40k (documented in
    EXPERIMENTS.md) while keeping it ~20x larger than the median dataset so
    the sampling optimization still matters (Figure 7).
    """
    shop_id = rng.integers(0, 60, n_rows)
    item_id = rng.integers(0, 5000, n_rows)
    category = rng.integers(0, 40, n_rows)
    month = rng.integers(1, 13, n_rows)
    year = rng.choice([2013, 2014, 2015], size=n_rows)
    day = rng.integers(1, 29, n_rows)
    # the real competition ships dates as DD.MM.YYYY strings
    dates = [
        f"{d:02d}.{m:02d}.{y}" for d, m, y in zip(day, month, year)
    ]
    base_price = np.round(np.exp(rng.normal(6.2, 1.0, n_rows)), 2)
    cnt = np.maximum(
        0,
        rng.poisson(1.2, n_rows)
        + (category < 8).astype(int)
        + (month == 12).astype(int)
        - (base_price > 2000).astype(int),
    ).astype(float)
    # a sprinkle of returns (negative counts) and outlier prices, as in the
    # real competition data, so cleaning steps have something to do
    returns = rng.random(n_rows) < 0.01
    cnt[returns] = -1.0
    spikes = rng.random(n_rows) < 0.002
    base_price[spikes] *= 80
    return DataFrame(
        {
            "date": dates,
            "shop_id": shop_id.tolist(),
            "item_id": item_id.tolist(),
            "item_category_id": category.tolist(),
            "month": month.tolist(),
            "year": year.tolist(),
            "item_price": _with_missing(rng, base_price.tolist(), 0.005),
            "item_cnt_day": cnt.tolist(),
        }
    )
