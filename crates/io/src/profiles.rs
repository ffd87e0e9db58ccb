//! Entity collections as CSV.
//!
//! Layout: the first column holds the profile URI; every other column is an
//! attribute named by the header. Empty cells contribute no name–value
//! pair, so sparse heterogeneous data stays sparse.
//!
//! ```csv
//! uri,FullName,job
//! p1,Jack Lloyd Miller,autoseller
//! p2,Erick Green,
//! ```

use crate::{csv, IoError, Result};
use er_model::EntityProfile;
use std::path::Path;

/// Reads one collection's profiles from a CSV string.
pub fn read_str(input: &str) -> Result<Vec<EntityProfile>> {
    let rows = csv::parse(input)?;
    let mut iter = rows.into_iter();
    let header = iter.next().ok_or_else(|| IoError::Format("missing header row".into()))?;
    if header.is_empty() || header[0].trim().is_empty() {
        return Err(IoError::Format("header must start with the URI column".into()));
    }
    let mut profiles = Vec::with_capacity(iter.len());
    for (n, row) in iter.enumerate() {
        if row.len() > header.len() {
            return Err(IoError::Format(format!(
                "row {} has {} fields but the header has {}",
                n + 2,
                row.len(),
                header.len()
            )));
        }
        let (uri, cells) = row
            .split_first()
            .filter(|(uri, _)| !uri.is_empty())
            .ok_or_else(|| IoError::Format(format!("row {} has an empty URI", n + 2)))?;
        let pairs = header[1..].iter().zip(cells).filter(|(_, value)| !value.is_empty());
        let text = pairs.clone().map(|(name, value)| name.len() + value.len()).sum();
        let mut profile = EntityProfile::sized(uri, pairs.clone().count(), text)
            .map_err(|overflow| IoError::Format(format!("row {}: {overflow}", n + 2)))?;
        for (name, value) in pairs {
            profile.add(name, value);
        }
        profiles.push(profile);
    }
    Ok(profiles)
}

/// Reads one collection's profiles from a CSV file.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<EntityProfile>> {
    read_str(&std::fs::read_to_string(path)?)
}

/// Serializes profiles to CSV, with one column per distinct attribute name
/// (first-seen order). Repeated attribute names within one profile are
/// joined with a space, matching how schema-agnostic tokenization treats
/// them.
pub fn write_str(profiles: &[EntityProfile]) -> String {
    let mut names: Vec<&str> = Vec::new();
    for p in profiles {
        for a in p.attributes() {
            if !names.contains(&a.name) {
                names.push(a.name);
            }
        }
    }
    let mut rows = Vec::with_capacity(profiles.len() + 1);
    let mut header = vec!["uri".to_string()];
    header.extend(names.iter().map(|n| n.to_string()));
    rows.push(header);
    for p in profiles {
        let mut row = vec![String::new(); names.len() + 1];
        row[0] = p.uri().to_string();
        for a in p.attributes() {
            // `names` was collected from these same profiles, so the lookup
            // always succeeds; skipping is strictly safer than aborting.
            let col = match names.iter().position(|n| *n == a.name) {
                Some(c) => c + 1,
                None => continue,
            };
            if row[col].is_empty() {
                row[col] = a.value.to_owned();
            } else {
                row[col].push(' ');
                row[col].push_str(a.value);
            }
        }
        rows.push(row);
    }
    csv::write(&rows)
}

/// Writes profiles to a CSV file.
pub fn write_file(path: impl AsRef<Path>, profiles: &[EntityProfile]) -> Result<()> {
    std::fs::write(path, write_str(profiles))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_header_named_attributes() {
        let profiles =
            read_str("uri,FullName,job\np1,Jack Miller,seller\np2,Erick Green,\n").unwrap();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].uri(), "p1");
        assert_eq!(profiles[0].len(), 2);
        assert_eq!(profiles[0].attributes().next().map(|a| a.name), Some("FullName"));
        // Empty cell -> no attribute.
        assert_eq!(profiles[1].len(), 1);
    }

    #[test]
    fn short_rows_are_padded_long_rows_rejected() {
        let profiles = read_str("uri,a,b\np1,x\n").unwrap();
        assert_eq!(profiles[0].len(), 1);
        assert!(read_str("uri,a\np1,x,y\n").is_err());
    }

    #[test]
    fn missing_header_or_uri_rejected() {
        assert!(read_str("").is_err());
        assert!(matches!(read_str("uri,a\n,x\n"), Err(IoError::Format(_))));
    }

    #[test]
    fn roundtrip_preserves_profiles() {
        let original = vec![
            EntityProfile::new("p1").with("name", "Jack, Miller").with("job", "car \"dealer\""),
            EntityProfile::new("p2").with("name", "Erick Green"),
            EntityProfile::new("p3"),
        ];
        let text = write_str(&original);
        let back = read_str(&text).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn repeated_attribute_names_join_on_write() {
        let p = vec![EntityProfile::new("p1").with("tag", "a").with("tag", "b")];
        let text = write_str(&p);
        let back = read_str(&text).unwrap();
        // The joined value tokenizes identically even though structure
        // flattened from two pairs to one.
        assert_eq!(back[0].values().collect::<Vec<_>>(), ["a b"]);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("er_io_profiles_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e1.csv");
        let original = vec![EntityProfile::new("x").with("a", "1")];
        write_file(&path, &original).unwrap();
        assert_eq!(read_file(&path).unwrap(), original);
        std::fs::remove_dir_all(&dir).ok();
    }
}
