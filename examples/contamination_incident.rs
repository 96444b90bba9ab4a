//! The paper's §7.1 scenario end-to-end: a water-contamination incident in
//! a chemical plants zone, three response roles, and fine-grained secure
//! views served through the G-SACS architecture of Fig. 3.
//!
//! Run with: `cargo run --example contamination_incident`

use grdf::core::ontology::grdf_ontology;
use grdf::rdf::vocab::grdf as ns;
use grdf::security::gsacs::{ClientRequest, GSacs, OntoRepository, OwlHorstEngine};
use grdf::security::ontology::security_ontology;
use grdf::security::policy::{Policy, PolicySet};
use grdf::workload::chemical::{alignment_axioms, generate_chemical_sites, ChemicalConfig};
use grdf::workload::hydrology::{generate_hydrology, HydrologyConfig};

fn main() {
    // --- data: hydrology topology + chemical repository (Lists 6–7) -----
    let hydro = generate_hydrology(&HydrologyConfig {
        streams: 60,
        seed: 7,
        ..Default::default()
    });
    let chem = generate_chemical_sites(&ChemicalConfig {
        sites: 40,
        seed: 8,
        ..Default::default()
    });
    let mut data = grdf::rdf::turtle::parse(alignment_axioms()).expect("axioms");
    for f in hydro.features.iter().chain(chem.features.iter()) {
        grdf::feature::encode_feature(&mut data, f);
    }
    println!("merged incident dataset: {} triples", data.len());

    // --- policies for the three §7.1 roles (List 8 style) ----------------
    let policies = PolicySet::new(vec![
        // 'main repair' — repairs wastewater pipes; may see only where the
        // chemical sites are, not what they store.
        Policy::permit_properties(
            &ns::sec("MainRepPolicy1"),
            &ns::sec("MainRep"),
            &ns::app("ChemSite"),
            &[&ns::iri("isBoundedBy"), &ns::iri("hasGeometry")],
        ),
        Policy::permit(
            &ns::sec("MainRepPolicy2"),
            &ns::sec("MainRep"),
            &ns::app("Stream"),
        ),
        // 'hazmat personnel' — clean up the spill; need chemicals + places.
        Policy::permit_properties(
            &ns::sec("HazmatPolicy1"),
            &ns::sec("Hazmat"),
            &ns::app("ChemSite"),
            &[
                &ns::iri("isBoundedBy"),
                &ns::iri("hasGeometry"),
                &ns::app("hasChemicalInfo"),
                &ns::app("hasSiteName"),
            ],
        ),
        Policy::permit(
            &ns::sec("HazmatPolicy2"),
            &ns::sec("Hazmat"),
            &ns::app("ChemInfo"),
        ),
        Policy::permit(
            &ns::sec("HazmatPolicy3"),
            &ns::sec("Hazmat"),
            &ns::app("Stream"),
        ),
        // 'emergency response' — administrative role, full access.
        Policy::permit(
            &ns::sec("EmPolicy1"),
            &ns::sec("Emergency"),
            &ns::app("ChemSite"),
        ),
        Policy::permit(
            &ns::sec("EmPolicy2"),
            &ns::sec("Emergency"),
            &ns::app("ChemInfo"),
        ),
        Policy::permit(
            &ns::sec("EmPolicy3"),
            &ns::sec("Emergency"),
            &ns::app("Stream"),
        ),
    ]);

    // --- assemble G-SACS (Fig. 3) ----------------------------------------
    let mut repo = OntoRepository::new();
    repo.register("grdf", grdf_ontology());
    repo.register("seconto", security_ontology());
    let service = GSacs::new(repo, policies, Box::<OwlHorstEngine>::default(), data, 256);
    println!(
        "G-SACS up: reasoner={}, {} inferred triples",
        service.reasoner_name(),
        service.inferred
    );

    // --- the same question, three roles, three answers -------------------
    let chemicals_query = format!(
        "PREFIX app: <{}>\nSELECT ?site ?chem WHERE {{ ?site app:hasChemicalInfo ?chem }}",
        ns::APP_NS
    );
    let locations_query = format!(
        "PREFIX app: <{}>\nPREFIX grdf: <{}>\nSELECT ?site WHERE {{ ?site a app:ChemSite ; grdf:isBoundedBy ?b }}",
        ns::APP_NS,
        ns::NS
    );

    for role in ["MainRep", "Hazmat", "Emergency"] {
        let role_iri = ns::sec(role);
        let chems = service
            .handle(&ClientRequest {
                role: role_iri.clone(),
                query: chemicals_query.clone(),
            })
            .expect("query");
        let locs = service
            .handle(&ClientRequest {
                role: role_iri.clone(),
                query: locations_query.clone(),
            })
            .expect("query");
        let visible = service.view_for(&role_iri).len();
        println!(
            "{role:>9}: sees {} chemical links, {} site locations  (labels show {} / hide {} triples)",
            chems.select_rows().len(),
            locs.select_rows().len(),
            visible,
            service.dataset().len() - visible,
        );
    }

    // --- the cache earns its keep on repeated requests --------------------
    for _ in 0..50 {
        service
            .handle(&ClientRequest {
                role: ns::sec("Hazmat"),
                query: chemicals_query.clone(),
            })
            .expect("query");
    }
    let (hits, misses) = service.cache_stats();
    println!(
        "query cache: {hits} hits / {misses} misses ({:.0}% hit rate)",
        service.cache_hit_rate() * 100.0
    );
}
