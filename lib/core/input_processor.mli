(** The Input Processor (paper §III-A): parses the source into the
    source AST and puts the compiled object file through the binary
    path (encode → decode → disassemble) to obtain the binary AST.

    Note the deliberate round-trip: Mira only ever sees the {e decoded
    object bytes}, never the compiler's in-memory program, mirroring
    the paper's setup where the binary comes from an external
    toolchain.

    For incremental reanalysis the pipeline splits in two: {!prepare}
    does the cheap source-side work (parse, fold, typecheck, closure
    fingerprint) shared by every function, after which each function
    can be digested ({!function_digest}) and, on a cache miss,
    compiled and disassembled in isolation ({!process_function}). *)

type t = {
  source_name : string;
  source : string;
  ast : Mira_srclang.Ast.program;  (** typechecked source AST *)
  object_bytes : string;
  binast : Mira_visa.Binast.t;
  level : Mira_codegen.Codegen.level;
}

val process :
  ?level:Mira_codegen.Codegen.level -> source_name:string -> string -> t
(** Process mini-C source text.
    @raise Mira_srclang.Parser.Error, [Failure] (typechecking),
    Mira_codegen.Codegen.Error. *)

val process_file : ?level:Mira_codegen.Codegen.level -> string -> t

(** {2 Function-granular pipeline} *)

type prepared = {
  pr_source_name : string;
  pr_source : string;
  pr_level : Mira_codegen.Codegen.level;
  pr_ast : Mira_srclang.Ast.program;  (** folded, typechecked *)
  pr_closure : Mira_srclang.Fingerprint.context;
}

val prepare :
  ?level:Mira_codegen.Codegen.level -> source_name:string -> string -> prepared
(** Source-side half of {!process}: parse, fold, typecheck, and
    compute the fingerprint closure.  Raises exactly what {!process}
    raises for source-side errors. *)

val process_prepared : prepared -> t
(** Compile-side half: [process = process_prepared ∘ prepare].  It
    compiles [pr_ast] rather than parsing the text again; the object
    bytes are the same either way. *)

val function_digest : prepared -> salt:string -> Mira_srclang.Ast.func -> string
(** Content digest of one function of [pr_ast] under its closure; see
    {!Mira_srclang.Fingerprint.func_digest}. *)

val process_function : prepared -> Mira_srclang.Ast.func -> Mira_visa.Binast.t
(** Compile just this function (all others stubbed) and return the
    binary AST of the reduced program.  The kept function's
    instruction stream is identical to its stream in a whole-file
    {!process}, so a {!Bridge} over this binast yields an identical
    {!Metric_gen.part}. *)
