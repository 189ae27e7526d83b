"""Golden values for the discrete-event simulator.

``test_deterministic_given_seed`` only compares two runs of the same
code, so a reordered sample or a re-charged hop would still pass it.
These cases pin the exact numbers :class:`SimulatedMPRSystem` produced
when they were recorded: every ``QueryOutcome``, every utilization and
every end-of-run backlog.  A change that moves one of them changes the
simulator's answers and must say so.
"""

import pytest

from repro.knn.calibration import AlgorithmProfile
from repro.mpr import MachineSpec, MPRConfig
from repro.sim import SimulatedMPRSystem, synthetic_stream

PROFILE = AlgorithmProfile("golden", tq=5e-4, vq=2.5e-7, tu=1e-4, vu=1e-8)
MACHINE = MachineSpec(
    total_cores=32, queue_write_time=5e-5, merge_time=4e-5, dispatch_time=3e-5
)


def partitioned_layers():
    """x > 1 and z > 1: the d-core and a-cores serve."""
    tasks = synthetic_stream(1500.0, 1000.0, 0.008, seed=11)
    system = SimulatedMPRSystem(MPRConfig(2, 2, 2), PROFILE, MACHINE, seed=3)
    return system.run(tasks, horizon=0.008)


def taxi_hailing():
    """A TH stream moving preloaded objects (delete + insert pairs)."""
    tasks = synthetic_stream(
        800.0, 1600.0, 0.01, seed=12, taxi_hailing=True, initial_objects=5
    )
    system = SimulatedMPRSystem(MPRConfig(3, 1, 2), PROFILE, MACHINE, seed=4)
    system.preload({obj: 0 for obj in range(5)})
    return system.run(tasks, horizon=0.01)


def perturbed():
    """A slow column plus a straggler window on one replica."""
    tasks = synthetic_stream(1000.0, 500.0, 0.01, seed=13)
    system = SimulatedMPRSystem(
        MPRConfig(2, 2, 1), PROFILE, MACHINE, seed=5,
        speed_factors={(0, 0, 1): 0.5, (0, 1, 1): 1.5},
        straggler=((0, 1, 0), 0.002, 0.006, 6.0),
    )
    return system.run(tasks, horizon=0.01)


def empty():
    system = SimulatedMPRSystem(MPRConfig(2, 1, 2), PROFILE, MACHINE, seed=6)
    return system.run([], horizon=1.0)


CASES = {
    "partitioned_layers": partitioned_layers,
    "taxi_hailing": taxi_hailing,
    "perturbed": perturbed,
    "empty": empty,
}


def snapshot(stats) -> dict:
    return {
        "outcomes": [
            (o.query_id, o.arrival, o.completion, o.worker_service_max)
            for o in stats.outcomes
        ],
        "workers": dict(sorted(stats.worker_utilizations.items())),
        "schedulers": stats.scheduler_utilizations,
        "aggregators": stats.aggregator_utilizations,
        "dispatcher": stats.dispatcher_utilization,
        "end_backlogs": dict(sorted(stats.end_backlogs.items())),
    }


GOLDEN = {
    'partitioned_layers': {
        'outcomes': [
            (0, 0.00040144856526476663, 0.0010628245208095639,
             0.0004913759555447971),
            (1, 0.0009484241529068309, 0.002026867668551063,
             0.0009084435156442317),
            (2, 0.0026682885709088493, 0.0030117912042277157,
             0.00015011625998776265),
            (3, 0.0030860914743743423, 0.005974287923933513,
             0.0027181964495591707),
            (4, 0.0035587274735690098, 0.004634080745775308,
             0.0009053532722062986),
            (5, 0.004148887413161755, 0.005016919924975059,
             0.0006759500540769279),
            (6, 0.004284987744197523, 0.005011462242192498,
             0.0005564744979949756),
            (7, 0.004763156194579708, 0.006886702307388599,
             0.0007098847183302083),
            (8, 0.005425779762034361, 0.005775023525955441,
             0.00017924376392108),
            (9, 0.006475729605368368, 0.00764892640830182,
             0.0010031968029334522),
            (10, 0.006541631103620208, 0.00776684051541687,
             0.0010552094117966622),
            (11, 0.006782661592690228, 0.008235008086346326,
             0.001269778581934767),
            (12, 0.006846026796335898, 0.007823022857359769,
             0.0008069960610238707),
            (13, 0.007951934851649753, 0.008275008086346326,
             0.00012230295263361863),
        ],
        'workers': {
            (0, 0, 0): 0.244536124762747,
            (0, 0, 1): 0.15486426617630675,
            (0, 1, 0): 0.17948485332165456,
            (0, 1, 1): 0.1870052861019723,
            (1, 0, 0): 0.20001889983552756,
            (1, 0, 1): 0.27972777798470827,
            (1, 1, 0): 0.5436666131051652,
            (1, 1, 1): 0.2556077230203648,
        },
        'schedulers': [0.12500000000000003, 0.12500000000000003],
        'aggregators': [0.07, 0.07],
        'dispatcher': 0.06375000000000001,
        'end_backlogs': {
            'a-core[1]': 0.0002750080863463261,
            's-core[1]': 8.193485164975298e-05,
            'w-core(0, 1, 1)': 1.0840636581275348e-06,
            'w-core(1, 0, 0)': 0.0001550080863463258,
            'w-core(1, 0, 1)': 0.00020423780428337202,
            'w-core(1, 1, 1)': 0.00019269377099695277,
        },
    },
    'taxi_hailing': {
        'outcomes': [
            (0, 0.0008044244946136327, 0.0012765632515437304,
             0.00025213875693009776),
            (1, 0.0021436786699762186, 0.002525632274509595,
             0.00016195360453337627),
            (2, 0.0035159836665438066, 0.004796326943378487,
             0.0010603432768346804),
            (3, 0.0037082975870952072, 0.004485213532608019,
             0.0005569159455128117),
            (4, 0.003721947397350501, 0.005147813513222692,
             0.0003525630973676711),
            (5, 0.004308961014447787, 0.005892488571610524,
             0.0013635275571627376),
            (6, 0.004709300482169281, 0.0063148980862047415,
             0.0011977356981616968),
            (7, 0.006787506407902624, 0.007844740868340097,
             0.000837234460437474),
            (8, 0.008253877152015383, 0.008974617647601432,
             0.000500740495586048),
            (9, 0.009403802125895429, 0.01079714952275213,
             0.0011733473968567004),
        ],
        'workers': {
            (0, 0, 0): 0.2320906790892691,
            (0, 0, 1): 0.24891662973659517,
            (0, 0, 2): 0.37879379145462116,
            (1, 0, 0): 0.16578389323792314,
            (1, 0, 1): 0.462794230481016,
            (1, 0, 2): 0.2047325975470811,
        },
        'schedulers': [0.17499999999999988, 0.1749999999999999],
        'aggregators': [0.060000000000000005, 0.060000000000000005],
        'dispatcher': 0.08999999999999997,
        'end_backlogs': {
            'a-core[1]': 0.0007971495227521302,
            'w-core(1, 0, 0)': 8.818706522979204e-05,
            'w-core(1, 0, 1)': 0.0007831392809064478,
        },
    },
    'perturbed': {
        'outcomes': [
            (0, 0.0002997661135566718, 0.0017937365252359689,
             0.001353970411679297),
            (1, 0.0014557681145818755, 0.0025474701395124277,
             0.0009517020249305519),
            (2, 0.0026080404478122997, 0.00394540735652458,
             0.0011558153999121125),
            (3, 0.004500744606093627, 0.00702239991993826,
             0.0023542145263012156),
            (4, 0.004706200723735877, 0.005090478283832806,
             0.0002442775600969288),
            (5, 0.00496829121733714, 0.00797831529995618,
             0.0009833561675613367),
            (6, 0.0051274744437406206, 0.006025107619485109,
             0.0007256307838738146),
            (7, 0.005382576954907803, 0.012764136273789665,
             0.004785820973833485),
            (8, 0.006706924659168198, 0.007327375911127512,
             0.00048045125195931345),
            (9, 0.006846431610230125, 0.012804136273789665,
             0.0006836951210238033),
            (10, 0.007604255458743113, 0.009804783689673791,
             0.002058915767578537),
            (11, 0.007844936306530947, 0.012960049038975721,
             0.0010855084951577475),
            (12, 0.008194007027091029, 0.010935848630129261,
             0.0011326774038076103),
            (13, 0.00875890230170914, 0.013074616970260935,
             0.0009432703855203271),
        ],
        'workers': {
            (0, 0, 0): 0.5425187098911549,
            (0, 0, 1): 0.592016228725688,
            (0, 1, 0): 0.9858231356231378,
            (0, 1, 1): 0.4914053023000703,
        },
        'schedulers': [0.19000000000000006],
        'aggregators': [0.11200000000000003],
        'dispatcher': 0.0,
        'end_backlogs': {
            'a-core[0]': 0.0030746169702609346,
            'w-core(0, 0, 0)': 0.00011220474047713737,
            'w-core(0, 0, 1)': 0.0008958486301292607,
            'w-core(0, 1, 0)': 0.0030346169702609345,
        },
    },
    'empty': {
        'outcomes': [],
        'workers': {
            (0, 0, 0): 0.0,
            (0, 0, 1): 0.0,
            (1, 0, 0): 0.0,
            (1, 0, 1): 0.0,
        },
        'schedulers': [0.0, 0.0],
        'aggregators': [0.0, 0.0],
        'dispatcher': 0.0,
        'end_backlogs': {},
    },
}


@pytest.mark.parametrize("name", list(CASES))
def test_simulator_reproduces_recorded_values(name) -> None:
    assert snapshot(CASES[name]()) == GOLDEN[name]


def test_golden_cases_cover_every_stage() -> None:
    """The cases exercise what they claim: d-core and a-core work, a
    backlog at the horizon, and a straggler-inflated service."""
    layered = GOLDEN["partitioned_layers"]
    assert layered["dispatcher"] > 0 and min(layered["aggregators"]) > 0
    assert layered["end_backlogs"]
    assert len(GOLDEN["taxi_hailing"]["outcomes"]) > 0
    services = [o[3] for o in GOLDEN["perturbed"]["outcomes"]]
    assert max(services) > 4 * PROFILE.tq
    assert GOLDEN["empty"]["outcomes"] == []
