//! The SU-name intern pool behind `SpatialUnrolling` deserialization is
//! bounded, and overflowing it is an error rather than a silent rename.
//! The pool is process-wide, so this file is its own test binary and
//! controls exactly how full the pool is.

use bitwave_dataflow::su::SpatialUnrolling;

fn su_json(name: &str) -> String {
    format!(r#"{{"name":"{name}","c":8,"k":32,"ox":16,"oy":1,"fx":1,"fy":1,"g":1}}"#)
}

fn parse(name: &str) -> Result<SpatialUnrolling, String> {
    serde_json::from_str(&su_json(name)).map_err(|e| e.to_string())
}

#[test]
fn overflowing_the_name_pool_is_an_error_not_a_rename() {
    assert_eq!(parse("early-name").unwrap().name, "early-name");
    let mut interned = 1;
    let overflow = loop {
        let name = format!("filler-{interned}");
        match parse(&name) {
            Ok(su) => {
                assert_eq!(su.name, name);
                interned += 1;
                assert!(interned <= 1024, "the pool must stay bounded");
            }
            Err(e) => break e,
        }
    };
    assert_eq!(interned, 1024, "the pool holds 1 024 names");
    assert!(overflow.contains("name"), "{overflow}");

    // A name arriving after the pool filled fails instead of coming back as
    // the "DSE" placeholder.
    let late = parse("late-name");
    assert!(late.is_err(), "renamed: {:?}", late.map(|su| su.name));

    // Names interned before the pool filled still resolve and round-trip.
    let early = parse("early-name").unwrap();
    assert_eq!(early.name, "early-name");
    assert_eq!(
        serde_json::to_string(&early).unwrap(),
        su_json("early-name")
    );
}
