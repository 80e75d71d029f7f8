//! The JSON reader for experiment artifacts and benchmark result sets:
//! [`histmerge_obs::json`]'s parser, re-exported so readers in this
//! crate's dependents keep their `histmerge_bench::json` paths. The
//! artifact *writer* ([`crate::artifact_json`]) emits the shape these
//! tests read back.

pub use histmerge_obs::json::{parse, JsonVal};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{artifact_json, Table};

    #[test]
    fn parses_scalars_arrays_and_nesting() {
        assert_eq!(parse("null").unwrap(), JsonVal::Null);
        assert_eq!(parse(" true ").unwrap(), JsonVal::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), JsonVal::Num(-1250.0));
        let doc = parse(r#"{"a":[1,{"b":"x"},false],"c":null}"#).unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("c"), Some(&JsonVal::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn member_order_is_preserved() {
        let doc = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = parse(r#""a \"q\" \n \t \\ A""#).unwrap();
        assert_eq!(doc.as_str(), Some("a \"q\" \n \t \\ A"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1} x", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn reads_back_the_writer_shape() {
        let mut t = Table::new(&["fleet", "merges_per_sec"]);
        t.row(&["10000", "123.4"]);
        t.row(&["100000", "98.7"]);
        let doc = parse(&artifact_json("exp_scale", &[("scale", &t)])).unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("exp_scale"));
        let rows = doc.get("tables").unwrap().get("scale").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        // The key column is the first member of every row object.
        assert_eq!(rows[0].as_obj().unwrap()[0].0, "fleet");
        assert_eq!(rows[1].get("merges_per_sec").unwrap().as_str(), Some("98.7"));
    }
}
