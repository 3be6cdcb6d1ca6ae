"""Casimir interaction energies for 2D/2.5D multibody geometries via the
multiple-reflection (diagrammatic) expansion."""

from .assembly import (
    I12,
    EnergyBreakdown,
    Scene,
    SceneObject,
    diagram_energy,
    evaluate,
    reflection_series,
)
from .closedforms import (
    parallel_plate_energy,
    parallel_plate_per_order,
    repulsion_energy,
    two_halfplates_energy,
)
from .diagrams import Diagram, canonicalize, enumerate_diagrams
from .errors import (
    CasimirError,
    DomainError,
    GeometryError,
    NumericalDomainError,
    ResolutionError,
    ValidationError,
)
from .quadrature import QuadratureGrid, build_grid
from .scattering import (
    BoundaryCondition,
    HalfPlate,
    InfinitePlate,
    Needle,
)
from .scenarios import (
    SCENARIOS,
    CurveOutput,
    ScenarioConfig,
    SweepSpec,
    force_direction_field,
)
from .scenarios import build as build_scenario
from .scenarios import run as run_scenario
from .translation import FramePose

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundaryCondition",
    "CasimirError",
    "CurveOutput",
    "Diagram",
    "DomainError",
    "EnergyBreakdown",
    "FramePose",
    "GeometryError",
    "HalfPlate",
    "I12",
    "InfinitePlate",
    "Needle",
    "NumericalDomainError",
    "QuadratureGrid",
    "ResolutionError",
    "SCENARIOS",
    "Scene",
    "SceneObject",
    "ScenarioConfig",
    "SweepSpec",
    "ValidationError",
    "build_grid",
    "build_scenario",
    "canonicalize",
    "diagram_energy",
    "enumerate_diagrams",
    "evaluate",
    "force_direction_field",
    "parallel_plate_energy",
    "parallel_plate_per_order",
    "reflection_series",
    "repulsion_energy",
    "run_scenario",
    "two_halfplates_energy",
]
