(** SARIF 2.1.0 rule metadata for lint findings, for GitHub code
    scanning (the lint binary renders the document).  Every rule, in
    every family, carries full metadata (name, short description, help
    text) uniformly. *)

type meta = {
  m_id : string;
  m_name : string;  (** PascalCase, the SARIF rule "name" *)
  m_short : string;  (** one line, mirroring README "Static analysis" *)
  m_help : string;  (** what to do about a finding *)
}

(** Metadata for every rule id in {!Rules.all}. *)
val catalog : meta list

val metadata_of : string -> meta option

(** [catalog] covers exactly {!Rules.all} — pinned by a test so a new
    rule id cannot land without its SARIF metadata. *)
val catalog_complete : unit -> bool
