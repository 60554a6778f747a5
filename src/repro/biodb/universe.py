"""The synthetic, cross-referenced biological universe.

A :class:`BioUniverse` is a deterministic stand-in for the 2013-era public
databases (UniProt, KEGG, EMBL, PDB, GO, ...) the paper's modules queried.
It is generated from a single seed, fully cross-referenced (every protein
has a coding gene, pathways reference genes and compounds, enzymes link
genes to compounds, publications mention proteins and pathways) and is the
single source of truth for every retrieval, mapping, transformation and
analysis module in the catalog: two modules that implement the same lookup
necessarily agree, which is what makes behaviour matching (§6) meaningful.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.biodb.accessions import scheme_for, species_name
from repro.biodb.entities import (
    Compound,
    Enzyme,
    Gene,
    Glycan,
    GOTerm,
    Ligand,
    Pathway,
    Protein,
    Publication,
    Structure,
)
from repro.biodb.reports import alignment_score
from repro.biodb.sequences import make_dna, make_protein, peptide_masses

_PROTEIN_STEMS = (
    "kinase", "phosphatase", "dehydrogenase", "synthase", "reductase",
    "transferase", "hydrolase", "isomerase", "ligase", "polymerase",
    "helicase", "protease", "oxidase", "carboxylase", "transporter",
)
_PATHWAY_STEMS = (
    "glycolysis", "citrate cycle", "pentose phosphate", "fatty acid",
    "purine metabolism", "pyrimidine metabolism", "amino sugar",
    "oxidative phosphorylation", "photosynthesis", "nitrogen metabolism",
    "signal transduction", "cell cycle", "apoptosis", "DNA repair",
    "proteasome", "spliceosome",
)
_COMPOUND_STEMS = (
    "glucose", "pyruvate", "citrate", "lactate", "acetyl-CoA", "ATP",
    "NADH", "glutamate", "alanine", "serine", "fumarate", "malate",
)
_GO_STEMS = (
    "binding", "catalytic activity", "transport", "signaling",
    "metabolic process", "biosynthetic process", "cell division",
    "DNA replication", "translation", "protein folding",
)
_KEYWORDS = (
    "cytoplasm", "membrane", "nucleus", "secreted", "mitochondrion",
    "ATP-binding", "metal-binding", "glycoprotein", "phosphoprotein",
)


class UnknownAccessionError(KeyError):
    """Raised by lookups for well-formed but unknown accessions."""


class BioUniverse:
    """A seeded, immutable-after-construction biological data universe.

    Args:
        seed: Seed for the private RNG; the same seed always yields the
            same universe.
        n_proteins: Number of proteins (and coding genes).
        n_pathways: Number of pathways.
        n_compounds: Number of chemical compounds.
    """

    def __init__(
        self,
        seed: int = 2014,
        n_proteins: int = 120,
        n_pathways: int = 24,
        n_compounds: int = 48,
    ) -> None:
        if n_proteins < 10 or n_pathways < 4 or n_compounds < 8:
            raise ValueError("universe too small to be cross-referenced")
        self.seed = seed
        rng = random.Random(seed)
        self._build_go_terms(rng, count=max(24, n_proteins // 3))
        self._build_compounds(rng, n_compounds)
        self._build_pathways_skeleton(rng, n_pathways)
        self._build_proteins_and_genes(rng, n_proteins)
        self._link_pathways(rng)
        self._build_enzymes(rng, count=max(8, n_proteins // 4))
        self._build_structures(rng)
        self._build_glycans(rng, count=16)
        self._build_ligands(rng, count=16)
        self._build_publications(rng, count=max(16, n_proteins // 2))
        self._index()
        # Search tables, built on first use (see "Search tables" below).
        self._mass_postings: dict[float, tuple[int, ...]] | None = None
        self._upper_sequences: tuple[str, ...] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_go_terms(self, rng: random.Random, count: int) -> None:
        scheme = scheme_for("GOTermIdentifier")
        namespaces = ("molecular_function", "biological_process", "cellular_component")
        terms = []
        for ordinal in range(count):
            stem = _GO_STEMS[ordinal % len(_GO_STEMS)]
            parent = None if ordinal < len(_GO_STEMS) else ordinal % len(_GO_STEMS)
            terms.append(
                GOTerm(
                    ordinal=ordinal,
                    go_id=scheme.mint(ordinal),
                    name=f"{stem} {ordinal // len(_GO_STEMS) + 1}",
                    namespace=namespaces[ordinal % 3],
                    parent_ordinal=parent,
                )
            )
        self.go_terms: tuple[GOTerm, ...] = tuple(terms)

    def _build_compounds(self, rng: random.Random, count: int) -> None:
        kegg = scheme_for("KEGGCompoundId")
        chebi = scheme_for("ChEBIIdentifier")
        compounds = []
        for ordinal in range(count):
            stem = _COMPOUND_STEMS[ordinal % len(_COMPOUND_STEMS)]
            carbon = 3 + ordinal % 9
            hydrogen = 4 + ordinal % 13
            oxygen = 1 + ordinal % 7
            compounds.append(
                Compound(
                    ordinal=ordinal,
                    kegg_id=kegg.mint(ordinal),
                    chebi_id=chebi.mint(ordinal),
                    name=f"{stem}-{ordinal // len(_COMPOUND_STEMS) + 1}",
                    formula=f"C{carbon}H{hydrogen}O{oxygen}",
                    mass=round(12.01 * carbon + 1.008 * hydrogen + 16.0 * oxygen, 2),
                )
            )
        self.compounds: tuple[Compound, ...] = tuple(compounds)

    def _build_pathways_skeleton(self, rng: random.Random, count: int) -> None:
        kegg = scheme_for("KEGGPathwayId")
        reactome = scheme_for("ReactomePathwayId")
        pathways = []
        for ordinal in range(count):
            stem = _PATHWAY_STEMS[ordinal % len(_PATHWAY_STEMS)]
            pathways.append(
                Pathway(
                    ordinal=ordinal,
                    kegg_id=kegg.mint(ordinal),
                    reactome_id=reactome.mint(ordinal),
                    name=f"{stem} pathway {ordinal // len(_PATHWAY_STEMS) + 1}",
                    organism_ordinal=ordinal % 8,
                    description=f"Synthetic reference pathway for {stem}.",
                )
            )
        self._pathways_skeleton = pathways

    def _build_proteins_and_genes(self, rng: random.Random, count: int) -> None:
        uniprot = scheme_for("UniProtAccession")
        pir = scheme_for("PIRAccession")
        kegg = scheme_for("KEGGGeneId")
        entrez = scheme_for("EntrezGeneId")
        ensembl = scheme_for("EnsemblGeneId")
        embl = scheme_for("EMBLAccession")
        genbank = scheme_for("GenBankAccession")
        refseq = scheme_for("RefSeqNucleotideAccession")
        proteins = []
        genes = []
        n_pathways = len(self._pathways_skeleton)
        for ordinal in range(count):
            organism = ordinal % 8
            stem = _PROTEIN_STEMS[ordinal % len(_PROTEIN_STEMS)]
            protein_name = f"{stem.capitalize()} {ordinal // len(_PROTEIN_STEMS) + 1}"
            sequence = make_protein(rng, length=30 + ordinal % 25)
            go_count = 1 + ordinal % 3
            go_ordinals = tuple(
                (ordinal * 7 + k * 3) % len(self.go_terms) for k in range(go_count)
            )
            pathway_ordinals = tuple(
                sorted({(ordinal + k) % n_pathways for k in range(1 + ordinal % 2)})
            )
            keywords = tuple(
                _KEYWORDS[(ordinal + k) % len(_KEYWORDS)] for k in range(2)
            )
            proteins.append(
                Protein(
                    ordinal=ordinal,
                    uniprot=uniprot.mint(ordinal),
                    pir=pir.mint(ordinal),
                    name=protein_name,
                    organism_ordinal=organism,
                    sequence=sequence,
                    gene_ordinal=ordinal,
                    go_term_ordinals=tuple(sorted(set(go_ordinals))),
                    pathway_ordinals=pathway_ordinals,
                    structure_ordinal=None,  # assigned in _build_structures
                    ec_ordinal=None,  # assigned in _build_enzymes
                    keywords=keywords,
                    publication_ordinals=(),  # assigned in _build_publications
                )
            )
            genes.append(
                Gene(
                    ordinal=ordinal,
                    kegg_id=kegg.mint(ordinal),
                    entrez_id=entrez.mint(ordinal),
                    ensembl_id=ensembl.mint(ordinal),
                    embl=embl.mint(ordinal),
                    genbank=genbank.mint(ordinal),
                    refseq=refseq.mint(ordinal),
                    name=f"{stem[:4]}{ordinal % 9 + 1}",
                    organism_ordinal=organism,
                    dna_sequence=make_dna(rng, length=60 + ordinal % 60),
                    protein_ordinal=ordinal,
                    pathway_ordinals=pathway_ordinals,
                )
            )
        self.proteins: tuple[Protein, ...] = tuple(proteins)
        self.genes: tuple[Gene, ...] = tuple(genes)

    def _link_pathways(self, rng: random.Random) -> None:
        gene_map: dict[int, list[int]] = {p.ordinal: [] for p in self._pathways_skeleton}
        for gene in self.genes:
            for pathway_ordinal in gene.pathway_ordinals:
                gene_map[pathway_ordinal].append(gene.ordinal)
        pathways = []
        for pathway in self._pathways_skeleton:
            compound_ordinals = tuple(
                sorted(
                    {
                        (pathway.ordinal * 3 + k) % len(self.compounds)
                        for k in range(3)
                    }
                )
            )
            pathways.append(
                Pathway(
                    ordinal=pathway.ordinal,
                    kegg_id=pathway.kegg_id,
                    reactome_id=pathway.reactome_id,
                    name=pathway.name,
                    organism_ordinal=pathway.organism_ordinal,
                    gene_ordinals=tuple(gene_map[pathway.ordinal]),
                    compound_ordinals=compound_ordinals,
                    description=pathway.description,
                )
            )
        self.pathways: tuple[Pathway, ...] = tuple(pathways)
        del self._pathways_skeleton

    def _build_enzymes(self, rng: random.Random, count: int) -> None:
        scheme = scheme_for("ECNumber")
        enzymes = []
        updated: dict[int, Protein] = {}
        for ordinal in range(count):
            gene_ordinals = tuple(
                sorted(
                    {
                        (ordinal * 5 + k * 2) % len(self.genes)
                        for k in range(1 + ordinal % 3)
                    }
                )
            )
            compound_ordinals = tuple(
                sorted({(ordinal * 2 + k) % len(self.compounds) for k in range(2)})
            )
            enzymes.append(
                Enzyme(
                    ordinal=ordinal,
                    ec_number=scheme.mint(ordinal),
                    name=f"EC enzyme {ordinal + 1}",
                    gene_ordinals=gene_ordinals,
                    compound_ordinals=compound_ordinals,
                )
            )
            for gene_ordinal in gene_ordinals:
                protein = updated.get(gene_ordinal, self.proteins[gene_ordinal])
                if protein.ec_ordinal is None:
                    updated[gene_ordinal] = Protein(
                        **{**protein.__dict__, "ec_ordinal": ordinal}
                    )
        self.enzymes: tuple[Enzyme, ...] = tuple(enzymes)
        self.proteins = tuple(
            updated.get(p.ordinal, p) for p in self.proteins
        )

    def _build_structures(self, rng: random.Random) -> None:
        scheme = scheme_for("PDBIdentifier")
        structures = []
        updated: dict[int, Protein] = {}
        # Every third protein has a solved structure.
        for index, protein in enumerate(self.proteins):
            if index % 3:
                continue
            ordinal = len(structures)
            structures.append(
                Structure(
                    ordinal=ordinal,
                    pdb_id=scheme.mint(ordinal),
                    protein_ordinal=protein.ordinal,
                    title=f"Crystal structure of {protein.name}",
                    resolution=round(1.5 + (ordinal % 20) / 10, 2),
                )
            )
            updated[protein.ordinal] = Protein(
                **{**protein.__dict__, "structure_ordinal": ordinal}
            )
        self.structures: tuple[Structure, ...] = tuple(structures)
        self.proteins = tuple(updated.get(p.ordinal, p) for p in self.proteins)

    def _build_glycans(self, rng: random.Random, count: int) -> None:
        scheme = scheme_for("KEGGGlycanId")
        self.glycans: tuple[Glycan, ...] = tuple(
            Glycan(
                ordinal=ordinal,
                glycan_id=scheme.mint(ordinal),
                name=f"glycan-{ordinal + 1}",
                composition=f"(Glc){1 + ordinal % 4}(GlcNAc){1 + ordinal % 3}",
            )
            for ordinal in range(count)
        )

    def _build_ligands(self, rng: random.Random, count: int) -> None:
        scheme = scheme_for("LigandId")
        self.ligands: tuple[Ligand, ...] = tuple(
            Ligand(
                ordinal=ordinal,
                ligand_id=scheme.mint(ordinal),
                name=f"ligand-{ordinal + 1}",
                compound_ordinal=ordinal % len(self.compounds),
            )
            for ordinal in range(count)
        )

    def _build_publications(self, rng: random.Random, count: int) -> None:
        pubmed = scheme_for("PubMedIdentifier")
        doi = scheme_for("DOIIdentifier")
        publications = []
        protein_pubs: dict[int, list[int]] = {}
        for ordinal in range(count):
            protein_ordinals = tuple(
                sorted({(ordinal * 3 + k) % len(self.proteins) for k in range(2)})
            )
            pathway_ordinals = tuple(
                sorted({(ordinal + k) % len(self.pathways) for k in range(1 + ordinal % 2)})
            )
            mentioned_proteins = [self.proteins[o] for o in protein_ordinals]
            mentioned_pathways = [self.pathways[o] for o in pathway_ordinals]
            title = (
                f"Functional analysis of {mentioned_proteins[0].name} in "
                f"{species_name(mentioned_proteins[0].organism_ordinal)}"
            )
            abstract = " ".join(
                [
                    f"We study {p.name} ({p.uniprot}) and its role." for p in mentioned_proteins
                ]
                + [
                    f"The {pw.name} is implicated ({pw.kegg_id})."
                    for pw in mentioned_pathways
                ]
            )
            publications.append(
                Publication(
                    ordinal=ordinal,
                    pubmed_id=pubmed.mint(ordinal),
                    doi=doi.mint(ordinal),
                    title=title,
                    abstract=abstract,
                    protein_ordinals=protein_ordinals,
                    pathway_ordinals=pathway_ordinals,
                )
            )
            for protein_ordinal in protein_ordinals:
                protein_pubs.setdefault(protein_ordinal, []).append(ordinal)
        self.publications: tuple[Publication, ...] = tuple(publications)
        self.proteins = tuple(
            Protein(
                **{
                    **p.__dict__,
                    "publication_ordinals": tuple(protein_pubs.get(p.ordinal, ())),
                }
            )
            for p in self.proteins
        )

    def _index(self) -> None:
        self._by_uniprot = {p.uniprot: p for p in self.proteins}
        self._by_pir = {p.pir: p for p in self.proteins}
        self._gene_by_kegg = {g.kegg_id: g for g in self.genes}
        self._gene_by_entrez = {g.entrez_id: g for g in self.genes}
        self._gene_by_ensembl = {g.ensembl_id: g for g in self.genes}
        self._gene_by_embl = {g.embl: g for g in self.genes}
        self._gene_by_genbank = {g.genbank: g for g in self.genes}
        self._gene_by_refseq = {g.refseq: g for g in self.genes}
        self._pathway_by_kegg = {p.kegg_id: p for p in self.pathways}
        self._pathway_by_reactome = {p.reactome_id: p for p in self.pathways}
        self._enzyme_by_ec = {e.ec_number: e for e in self.enzymes}
        self._compound_by_kegg = {c.kegg_id: c for c in self.compounds}
        self._compound_by_chebi = {c.chebi_id: c for c in self.compounds}
        self._structure_by_pdb = {s.pdb_id: s for s in self.structures}
        self._glycan_by_id = {g.glycan_id: g for g in self.glycans}
        self._ligand_by_id = {l.ligand_id: l for l in self.ligands}
        self._go_by_id = {t.go_id: t for t in self.go_terms}
        interpro = scheme_for("InterProIdentifier")
        self._go_by_interpro = {
            interpro.mint(t.ordinal): t for t in self.go_terms
        }
        taxon = scheme_for("NCBITaxonId")
        self._organism_by_taxon = {taxon.mint(o): o for o in range(8)}
        self._organism_by_name = {species_name(o): o for o in range(8)}
        self._publication_by_pubmed = {p.pubmed_id: p for p in self.publications}
        self._publication_by_doi = {p.doi: p for p in self.publications}
        self._lookup_tables: dict[str, dict[str, object]] = {
            "UniProtAccession": self._by_uniprot,
            "PIRAccession": self._by_pir,
            "KEGGGeneId": self._gene_by_kegg,
            "EntrezGeneId": self._gene_by_entrez,
            "EnsemblGeneId": self._gene_by_ensembl,
            "EMBLAccession": self._gene_by_embl,
            "GenBankAccession": self._gene_by_genbank,
            "RefSeqNucleotideAccession": self._gene_by_refseq,
            "KEGGPathwayId": self._pathway_by_kegg,
            "ReactomePathwayId": self._pathway_by_reactome,
            "ECNumber": self._enzyme_by_ec,
            "KEGGCompoundId": self._compound_by_kegg,
            "ChEBIIdentifier": self._compound_by_chebi,
            "PDBIdentifier": self._structure_by_pdb,
            "KEGGGlycanId": self._glycan_by_id,
            "LigandId": self._ligand_by_id,
            "GOTermIdentifier": self._go_by_id,
            "InterProIdentifier": self._go_by_interpro,
            "PubMedIdentifier": self._publication_by_pubmed,
            "DOIIdentifier": self._publication_by_doi,
            "NCBITaxonId": self._organism_by_taxon,
            "ScientificOrganismName": self._organism_by_name,
        }

    def interpro_for_go(self, term: GOTerm) -> str:
        """The InterPro accession cross-referencing a GO term."""
        return scheme_for("InterProIdentifier").mint(term.ordinal)

    def taxon_for_organism(self, organism_ordinal: int) -> str:
        """The NCBI taxonomy id of an organism ordinal."""
        return scheme_for("NCBITaxonId").mint(organism_ordinal)

    # ------------------------------------------------------------------
    # Lookup API
    # ------------------------------------------------------------------
    def resolve(self, concept: str, accession: str):
        """Resolve an accession under the scheme of ``concept``.

        Raises:
            KeyError: If ``concept`` has no lookup table.
            UnknownAccessionError: If the accession is not in the universe.
        """
        table = self._lookup_tables[concept]
        try:
            return table[accession]
        except KeyError:
            raise UnknownAccessionError(f"{concept}: {accession!r}") from None

    def has(self, concept: str, accession: str) -> bool:
        """True when ``accession`` resolves under ``concept``."""
        table = self._lookup_tables.get(concept)
        return table is not None and accession in table

    def lookup_concepts(self) -> tuple[str, ...]:
        """Identifier concepts this universe can resolve."""
        return tuple(self._lookup_tables)

    def gene_for_protein(self, protein: Protein) -> Gene:
        return self.genes[protein.gene_ordinal]

    def protein_for_gene(self, gene: Gene) -> Protein:
        return self.proteins[gene.protein_ordinal]

    def similar_proteins(self, protein: Protein, limit: int = 5) -> tuple[Protein, ...]:
        """Deterministic homology ranking: proteins sharing the name stem,
        then nearest sequence lengths, excluding the query itself."""
        stem = protein.name.split()[0]
        candidates = sorted(
            (p for p in self.proteins if p.ordinal != protein.ordinal),
            key=lambda p: (
                p.name.split()[0] != stem,
                abs(len(p.sequence) - len(protein.sequence)),
                p.ordinal,
            ),
        )
        return tuple(candidates[:limit])

    # ------------------------------------------------------------------
    # Search tables
    # ------------------------------------------------------------------
    # Both tables are pure functions of ``self.proteins``, which never
    # changes after construction.  Two threads racing on a first build
    # each build an equal table and one assignment wins, so no lock.
    def _peptide_mass_postings(self) -> dict[float, tuple[int, ...]]:
        """Tryptic peptide mass (rounded to 0.1) -> positions in
        ``self.proteins`` of the proteins with a peptide of that mass."""
        postings = self._mass_postings
        if postings is None:
            lists: dict[float, list[int]] = {}
            for index, protein in enumerate(self.proteins):
                for mass in {round(m, 1) for m in peptide_masses(protein.sequence)}:
                    lists.setdefault(mass, []).append(index)
            postings = {mass: tuple(hits) for mass, hits in lists.items()}
            self._mass_postings = postings
        return postings

    def _alignment_table(self) -> tuple[str, ...]:
        """Each protein's sequence upper-cased, in order."""
        table = self._upper_sequences
        if table is None:
            table = tuple(p.sequence.upper() for p in self.proteins)
            self._upper_sequences = table
        return table

    def identify_by_peptide_masses(self, masses: "list[float]") -> Protein | None:
        """Protein identification: the protein whose tryptic peptide masses
        best overlap the query masses (ties broken by ordinal)."""
        postings = self._peptide_mass_postings()
        scores: dict[int, int] = {}
        for mass in {round(m, 1) for m in masses}:
            for index in postings.get(mass, ()):
                scores[index] = scores.get(index, 0) + 1
        if not scores:
            return None
        return self.proteins[min(scores, key=lambda index: (-scores[index], index))]

    def rank_by_alignment(
        self, sequence: str, limit: int
    ) -> list[tuple[Protein, int]]:
        """Homology search: the ``limit`` proteins with the highest
        :func:`~repro.biodb.reports.score_alignment` against ``sequence``,
        as ``(protein, score)`` pairs, best first (ties by ordinal)."""
        query = sequence.upper()
        ranked = sorted(
            (-alignment_score(query, target), protein.ordinal, protein)
            for target, protein in zip(self._alignment_table(), self.proteins)
        )
        return [(protein, -negated) for negated, _ordinal, protein in ranked[:limit]]


@lru_cache(maxsize=4)
def default_universe(seed: int = 2014) -> BioUniverse:
    """The shared default universe (cached per seed)."""
    return BioUniverse(seed=seed)
