import inspect

import hypothesis
from hypothesis import strategies as st

from covsteer.actionspace import ActionSpace, KnobSpec
from covsteer.env import stimulus_rng
from covsteer.rle import RleDut

hypothesis.settings.register_profile("suite", deadline=None, max_examples=100)
hypothesis.settings.load_profile("suite")


@st.composite
def knob_specs(draw, index: int):
    kind = draw(st.sampled_from(["continuous", "discrete"]))
    name = f"knob{index}"
    if kind == "continuous":
        lo = draw(st.floats(-100, 99, allow_nan=False, allow_infinity=False))
        width = draw(st.floats(0.5, 50, allow_nan=False, allow_infinity=False))
        return KnobSpec.continuous(name, lo, lo + width)
    values = draw(
        st.lists(
            st.integers(-1000, 1000).map(float), min_size=1, max_size=12, unique=True
        )
    )
    return KnobSpec.discrete(name, values)


@st.composite
def action_spaces(draw, max_knobs: int = 5):
    n = draw(st.integers(1, max_knobs))
    return ActionSpace(knobs=tuple(draw(knob_specs(i)) for i in range(n)))


# Any value json.loads can return: NaN, the infinities and integers beyond
# the float range included.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers().map(lambda n: n * 10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


class StreamThenFault(RleDut):
    """Draws from the episode's stimulus stream, then raises; only on its first step."""

    def __init__(self):
        self.faults_left = 1

    def step(self, action, seed):
        if self.faults_left:
            self.faults_left -= 1
            stimulus_rng(seed).random(100)
            raise RuntimeError("transient fault")
        return super().step(action, seed)


def exec_mutant(monkeypatch, module, name, line, mutation):
    """Monkeypatch ``module.name`` with its source's one ``line`` replaced by ``mutation``.

    The mutated source is exec'd in the module's namespace, so it calls
    the same helpers as the original.
    """
    source = inspect.getsource(getattr(module, name))
    assert source.count(line) == 1
    namespace = dict(vars(module))
    exec(source.replace(line, mutation), namespace)
    monkeypatch.setattr(module, name, namespace[name])
