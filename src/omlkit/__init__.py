"""Finite orthomodular lattices, contextual valuations, and modal
actualization.

The package builds finite orthomodular lattices from Greechie diagrams
or explicit order data, ingests rational vector sets as context
hypergraphs, searches the poset of Boolean subalgebras (or contexts)
for global two-valued valuations, and runs the Boolean-saturation modal
machinery: box/diamond operators, possibility spaces, and the
actualization constructions that turn possibility valuations into
context valuations and back.
"""

from .boolalg import (BooleanSubalgebra, Filter, TwoValuedHom,
                      enumerate_blocks, enumerate_subalgebras, extend_hom,
                      extend_to_maximal, filter_generate, generated_subalgebra,
                      homs_to_2, subalgebra, subalgebras_within)
from .core import (FiniteOML, TripleReport, center, commutes, element_cap,
                   product, triple_check, verify_oml)
from .corpus import CORPUS, boolean, bowtie, cabello18, chain2, mo, pentagon
from .errors import (BlockSubsumed, CapExceeded, DimensionMismatch,
                     EmbeddingInvalid, ImproperInput,
                     IncompatibleGlobalSection, InternalError, LoopViolation,
                     NotALattice, NotInW, NotOrtho, NotOrthomodular,
                     NonCommutingGenerators, OmlkitError, ParseError,
                     PreconditionPossibility, SingletonBlock, SizeCap,
                     ValidationError, ZeroVector)
from .greechie import (GreechieDiagram, export_dot, parse_greechie, paste,
                       render_greechie)
from .interchange import parse_interchange, render_interchange
from .modal import (AxiomResult, ModalAxiomReport, ModalExtension,
                    ModalStructure, PossibilitySection, PossibilitySpace,
                    actualize, born_extend, check_modal_axioms,
                    global_actualization_check, modal_extend,
                    possibility_sections, possibility_space, saturate)
from .sheaf import (PosetNode, Section, SheafPoint, SolveResult,
                    SubalgebraPoset, build_poset, check_section,
                    principal_poset, principal_section, render_answer,
                    section_eval, solve_global)
from .vectors import (ContextHypergraph, RationalVector, canonical_ray,
                      hypergraph_from_rays, parse_vectors)

__version__ = "0.1.0"

__all__ = [
    "AxiomResult", "BlockSubsumed", "BooleanSubalgebra", "CORPUS",
    "CapExceeded", "ContextHypergraph", "DimensionMismatch",
    "EmbeddingInvalid", "Filter", "FiniteOML", "GreechieDiagram",
    "ImproperInput", "IncompatibleGlobalSection", "InternalError",
    "LoopViolation", "ModalAxiomReport", "ModalExtension", "ModalStructure",
    "NonCommutingGenerators", "NotALattice", "NotInW", "NotOrtho",
    "NotOrthomodular", "OmlkitError", "ParseError", "PosetNode",
    "PossibilitySection", "PossibilitySpace", "PreconditionPossibility",
    "RationalVector", "Section", "SheafPoint", "SingletonBlock", "SizeCap",
    "SolveResult", "SubalgebraPoset", "TripleReport", "TwoValuedHom",
    "ValidationError", "ZeroVector", "actualize", "boolean", "born_extend",
    "bowtie", "build_poset", "cabello18", "canonical_ray", "center", "chain2",
    "check_modal_axioms", "check_section", "commutes", "element_cap",
    "enumerate_blocks", "enumerate_subalgebras", "export_dot", "extend_hom",
    "extend_to_maximal", "filter_generate", "generated_subalgebra",
    "global_actualization_check", "homs_to_2", "hypergraph_from_rays", "mo",
    "modal_extend", "parse_greechie", "parse_interchange", "parse_vectors",
    "paste", "pentagon", "possibility_sections", "possibility_space",
    "principal_poset", "principal_section", "product", "render_answer",
    "render_greechie", "render_interchange", "saturate", "section_eval",
    "solve_global", "subalgebra", "subalgebras_within", "triple_check",
    "verify_oml",
]
