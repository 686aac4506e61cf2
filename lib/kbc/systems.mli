(** The five KBC systems of the evaluation (Figure 7), as synthetic
    presets scaled to run in seconds on one core.

    Each preset positions itself on the axes the paper uses to distinguish
    the systems: Adversarial has tiny low-quality documents; News has many
    relations and medium quality; Genomics has precise text but ambiguous
    relations; Pharma has ambiguous text and many relations; Paleontology
    has precise, unambiguous writing and sparse correlations. *)

val news : Corpus.config
val genomics : Corpus.config
val paleontology : Corpus.config

val all : Corpus.config list
(** In the paper's order: Adversarial, News, Genomics, Pharma, Paleo. *)

val by_name : string -> Corpus.config option
